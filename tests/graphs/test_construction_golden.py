"""Golden file pinning every flow-derived answer of the construction stack.

Connectivity, separators, disjoint paths and the routings built from them
all come out of one max-flow engine, whose traversal order decides *which*
minimum separator and *which* disjoint paths are chosen.  This test renders
those answers for every registry family at its default parameters (plus the
perfbench construction specs) and diffs them against
``tests/golden/construction_fingerprints.txt``, so any change to the flow
code that alters a single separator, path or routing fingerprint fails here.

Regenerate the golden file (only when a change is *meant* to alter the
answers) with::

    PYTHONPATH=src python tests/graphs/test_construction_golden.py \\
        > tests/golden/construction_fingerprints.txt
"""

from __future__ import annotations

import pathlib
import sys
from typing import List

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "construction_fingerprints.txt"

#: The grid specs whose construction the end-to-end benchmark times.
PERFBENCH_SPECS = [
    "circulant:n=100..103,offsets=1+2+5/kernel/t=1",
    "hypercube:d=6/kernel/t=1..2",
    "hypercube:d=7/kernel",
]


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # the error class is part of the golden answer
        return type(exc).__name__


def render() -> str:
    """Return the golden text for the current source tree."""
    from repro.core.builder import available_strategies, build_routing
    from repro.graphs import node_connectivity, vertex_disjoint_paths
    from repro.graphs.registry import GRAPH_FAMILIES
    from repro.graphs.separators import minimum_separator
    from repro.scenarios.spec import expand_grids

    lines: List[str] = []
    for name in sorted(GRAPH_FAMILIES):
        family = GRAPH_FAMILIES[name]
        label = family.canonical()
        graph = family.build()
        lines.append(f"{label} kappa {node_connectivity(graph)}")
        separator = _outcome(lambda: sorted(minimum_separator(graph), key=repr))
        lines.append(f"{label} separator {separator}")
        nodes = graph.nodes()
        for other in nodes[1:6]:
            paths = _outcome(lambda: vertex_disjoint_paths(graph, nodes[0], other))
            lines.append(f"{label} paths {nodes[0]!r}->{other!r} {paths}")
        for strategy in available_strategies():
            try:
                outcome = build_routing(graph, strategy=strategy).fingerprint()
            except Exception as exc:
                outcome = type(exc).__name__
            lines.append(f"{label} {strategy} {outcome}")
    for scenario in expand_grids(PERFBENCH_SPECS):
        _, result = scenario.build()
        lines.append(f"{scenario.canonical()} {result.fingerprint()}")
    return "\n".join(lines) + "\n"


def test_construction_answers_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    assert actual == expected


if __name__ == "__main__":
    sys.stdout.write(render())
