"""Outside-in span tracer: times calls into the program's public callables.

The benchmark never edits the program.  Instead :meth:`Tracer.wrap`
replaces the attribute a caller looks up (``repro.scenarios.suite
.build_routing``, ``FlowNetwork.max_flow``, ...) with a timing wrapper, and
:meth:`Tracer.restore` puts every original back.

Per span name the tracer keeps

* ``total`` — wall time of the *outermost* calls (a recursive or re-entrant
  call of a name already open is not counted twice);
* ``self`` — wall time minus the time covered by child spans;
* ``calls`` and ``items`` (an optional per-call count, e.g. fault sets).

``covered`` sums the top-level spans, so ``wall - covered`` is the time no
span accounts for.  Pool workers forked from a traced process inherit the
wrappers; at the fork the tracer drops the copied parent state, and a
worker flushes its own aggregates to ``<spool>/spans-<pid>.json`` each time
its stack empties, so the parent can merge them with :func:`merge_spool`.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Clock = Callable[[], float]


class Tracer:
    def __init__(self, spool: Optional[str] = None, clock: Clock = time.perf_counter):
        self.spool = spool
        self.clock = clock
        self._owner = self._pid = os.getpid()
        self._wrapped: List[Tuple[object, str, object]] = []
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self._pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.total: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.items: Dict[str, int] = {}
        self.covered = 0.0
        # Open spans: [name, start, time covered by children].
        self._stack: List[List[Any]] = []
        self._depth: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, items: int = 0) -> None:
        name, start, children = self._stack.pop()
        duration = self.clock() - start
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        if items:
            self.items[name] = self.items.get(name, 0) + items
        depth = self._depth[name] = self._depth[name] - 1
        if not depth:
            self.total[name] = self.total.get(name, 0.0) + duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration
            if self.spool is not None and self._pid != self._owner:
                self.flush(os.path.join(self.spool, f"spans-{self._pid}.json"))

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        items: Optional[Callable[[Any], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``.

        ``items(result)``, when given, adds a per-call work count.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.enter(name)
            count = 0
            try:
                result = original(*args, **kwargs)
                if items is not None:
                    count = items(result)
                return result
            finally:
                tracer.exit(count)

        self._wrapped.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: one span per ``next``."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            try:
                while True:
                    tracer.enter(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.exit()
                    yield item
            finally:
                iterator.close()

        self._wrapped.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def hook(self, owner: object, attr: str, callback: Callable[..., None]) -> None:
        """Call ``callback(*args, **kwargs)`` after each call of ``owner.attr``.

        Used to capture instances (e.g. a ``Supervisor`` for its stats)
        without recording a span.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            callback(*args, **kwargs)
            return result

        self._wrapped.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        return {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "items": dict(self.items),
            "covered": self.covered,
        }

    def flush(self, path: str) -> None:
        partial = path + ".tmp"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle)
        os.replace(partial, path)


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum span aggregates of several processes (``covered`` excluded)."""
    merged: Dict[str, Dict[str, float]] = {
        "total": {}, "self": {}, "calls": {}, "items": {}
    }
    for snapshot in snapshots:
        for field, values in merged.items():
            for name, value in snapshot.get(field, {}).items():
                values[name] = values.get(name, 0) + value
    return merged


def merge_spool(spool: str) -> Tuple[Dict[str, Any], int]:
    """Merge every worker's flushed spans under ``spool``; returns the count."""
    snapshots = []
    for entry in sorted(os.listdir(spool)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(spool, entry), encoding="utf-8") as handle:
                snapshots.append(json.load(handle))
    return merge(snapshots), len(snapshots)
