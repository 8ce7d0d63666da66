"""Golden file pinning the stdout of ``repro campaign``.

Both spellings of ``repro campaign`` run through the scenario suite:
``--graph G --strategy S --t T --sizes X`` is the one-point scenario
``--scenario G/S/t=T/sizes:X``.  This test runs a fixed set of invocations
(plain, ``--greedy``, a holding and a violated ``--bound``, at one and two
workers, each in both spellings, plus a greedy hypercube scenario) and
diffs their output and exit codes against
``tests/golden/campaign_cli.txt``, so a refactor that changes a single
seed, battery member, column or witness line fails here.  A second test
checks that every ``--graph`` leg of the golden file equals its
``--scenario`` spelling byte for byte.

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
from typing import Dict, List

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "campaign_cli.txt"

_GRAPH = "--graph circulant:24,1,2 --sizes 1,2"
_SCENARIO = "--scenario circulant:24,1,2/auto/sizes:1,2"
_BATTERY = "--samples 64 --seed 7"

#: Every pinned invocation, as the argument string after ``repro``.
INVOCATIONS = [
    f"campaign {target} {_BATTERY}{extra} --workers {workers}"
    for extra in ("", " --greedy", " --bound 3", " --bound 2")
    for workers in (1, 2)
    for target in (_GRAPH, _SCENARIO)
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


def _golden_blocks() -> Dict[str, List[str]]:
    """Map each invocation in the golden file to its output and exit lines."""
    blocks: Dict[str, List[str]] = {}
    for block in GOLDEN.read_text().split("\n\n"):
        command, *output = block.strip("\n").splitlines()
        blocks[command] = output
    return blocks


def test_campaign_output_matches_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    assert actual == expected


def test_graph_legs_equal_their_scenario_spelling():
    blocks = _golden_blocks()
    graph_legs = [command for command in blocks if _GRAPH in command]
    assert len(graph_legs) == 8
    for command in graph_legs:
        assert blocks[command] == blocks[command.replace(_GRAPH, _SCENARIO)]


if __name__ == "__main__":
    sys.stdout.write(render())
