"""Golden file pinning the stdout of ``repro campaign``.

``repro campaign --graph`` runs through :class:`~repro.faults.engine
.CampaignEngine` and ``repro campaign --scenario`` through the scenario
suite.  Both plan batteries, grow greedy probes and fold outcomes into rows;
this test runs a fixed set of invocations (plain, ``--greedy`` and
``--bound`` at one and two workers, plus a greedy scenario campaign) and
diffs their output and exit codes against ``tests/golden/campaign_cli.txt``,
so a refactor that changes a single seed, battery member or column fails
here.

Regenerate the golden file (only when a change is *meant* to alter the
rows) with::

    PYTHONPATH=src python tests/test_campaign_golden.py \\
        > tests/golden/campaign_cli.txt
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import sys
from typing import List

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "campaign_cli.txt"

_GRAPH = "--graph circulant:24,1,2 --sizes 1,2 --samples 64 --seed 7"

#: Every pinned invocation, as the argument string after ``repro``.
INVOCATIONS = [
    f"campaign {_GRAPH}{extra} --workers {workers}"
    for extra in ("", " --greedy", " --bound 3")
    for workers in (1, 2)
] + ["campaign --scenario hypercube:d=4/kernel/sizes:1,2 --greedy"]


def render() -> str:
    """Return the golden text for the current source tree."""
    from repro.cli import main

    lines: List[str] = []
    for invocation in INVOCATIONS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(invocation.split())
        lines.append(f"$ repro {invocation}")
        lines.extend(stdout.getvalue().splitlines())
        lines.append(f"exit {code}")
        lines.append("")
    return "\n".join(lines)


def test_campaign_output_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    assert actual == expected


if __name__ == "__main__":
    sys.stdout.write(render())
