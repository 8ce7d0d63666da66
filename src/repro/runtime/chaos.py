"""Environment-triggered fault injection: the chaos harness's trigger points.

The supervision layer (:mod:`repro.runtime.supervisor`) claims to survive
worker crashes, hangs, poisoned tasks and torn store writes.  This module is
how the test suite and CI *prove* it: hot paths call :func:`chaos_point` at
well-known sites, and the environment decides whether anything happens
there.  With ``REPRO_CHAOS`` unset the call is a dictionary lookup and a
return — no measurable cost on the clean path.

``REPRO_CHAOS`` holds one or more comma-separated injection specs::

    REPRO_CHAOS="<site>:<action>[:<match>]"

* ``site`` — where to fire.  ``task`` fires inside worker task evaluation
  (suite shards and tolerance-scan shards); ``build`` fires at the top of a suite
  scenario's construction task (its label is the canonical scenario
  string); ``append`` fires inside
  :meth:`repro.results.store.ResultStore.append`.
* ``action`` — what to do:

  - ``fail``  raise :class:`ChaosError` (a poisoned task);
  - ``kill``  ``SIGKILL`` the current process (a crashed worker);
  - ``exit``  ``os._exit(17)`` (a process that dies without cleanup);
  - ``hang``  sleep for an hour (a wedged worker, caught by task timeouts);
  - ``torn``  returned to the *caller* to implement — the store writes half
    a line and exits, simulating a writer killed mid-``write``.

* ``match`` — optional substring filter on the site label (a scenario spec,
  shard tag or store key), so one task of a sweep can be poisoned while the
  rest run clean.

**Once-only firing.**  Pointing ``REPRO_CHAOS_LEDGER`` at a directory makes
every spec fire at most once *across all processes*: before acting, the
process claims the spec by creating a ledger file with
``O_CREAT | O_EXCL`` (atomic on every platform we run on), and an already
claimed spec is skipped.  This is what makes "kill one worker, then let the
retry succeed" expressible — without a ledger the respawned worker would be
killed again forever.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from typing import Optional

from repro.exceptions import ReproError

#: Environment variable holding the comma-separated injection specs.
CHAOS_ENV = "REPRO_CHAOS"
#: Environment variable naming the once-only claim directory.
LEDGER_ENV = "REPRO_CHAOS_LEDGER"

CHAOS_SITES = ("task", "build", "append")
CHAOS_ACTIONS = ("fail", "kill", "exit", "hang", "torn")


class ChaosError(ReproError):
    """Raised by a ``fail`` injection: a deterministic, poisoned task."""


def _claim(spec: str) -> bool:
    """Atomically claim ``spec`` in the ledger; True when this call may fire.

    With no ledger configured every matching call fires.  The claim is
    written *before* the action runs, so ``kill``/``exit`` injections are
    recorded even though the process never returns.
    """
    ledger = os.environ.get(LEDGER_ENV)
    if not ledger:
        return True
    name = hashlib.sha256(spec.encode("utf-8")).hexdigest()[:32]
    try:
        fd = os.open(
            os.path.join(ledger, name), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    os.close(fd)
    return True


def chaos_point(site: str, label: str = "") -> Optional[str]:
    """Fire any configured injection for ``site``; no-op when none matches.

    Self-contained actions (``fail`` / ``kill`` / ``exit`` / ``hang``) are
    performed here.  Actions the caller must cooperate with (``torn``) are
    returned as a string; every other path returns ``None``.
    """
    configured = os.environ.get(CHAOS_ENV)
    if not configured:
        return None
    for spec in configured.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":", 2)
        if len(parts) < 2:
            raise ChaosError(
                f"malformed {CHAOS_ENV} entry {spec!r}; expected "
                "site:action[:match]"
            )
        target, action = parts[0], parts[1]
        match = parts[2] if len(parts) > 2 else ""
        if target not in CHAOS_SITES:
            raise ChaosError(
                f"unknown chaos site {target!r}; sites: {CHAOS_SITES}"
            )
        if action not in CHAOS_ACTIONS:
            raise ChaosError(
                f"unknown chaos action {action!r}; actions: {CHAOS_ACTIONS}"
            )
        if target != site or (match and match not in label):
            continue
        if not _claim(spec):
            continue
        if action == "fail":
            raise ChaosError(f"injected failure at {site}:{label}")
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if action == "exit":
            os._exit(17)
        if action == "hang":
            time.sleep(3600.0)
            continue
        return action  # "torn": implemented by the calling site
    return None
