"""Golden file pinning the answers of the (d, f)-tolerance scans.

:func:`~repro.core.tolerance.verify_construction`,
:func:`~repro.core.tolerance.check_tolerance` and
:func:`~repro.core.tolerance.worst_case_diameter` plan their batteries,
evaluate them on the shard executor and stop at the first violation.  This
test runs a fixed set of scans at one and two workers: exhaustive
verification of a kernel and a circular construction, the combined
adversarial battery (forced by a small ``exhaustive_limit``), an explicit
battery, a violated bound that exits early and an exact worst case over a
fixed battery.  It records each report's repr, ``evaluated``,
``worst_diameter`` and witness nodes and diffs them against
``tests/golden/tolerance_reports.txt``, so a change to the scan order, the
early exit or the witness fails here.

Regenerate the golden file (only when a change is *meant* to alter the
answers) with::

    PYTHONPATH=src python tests/core/test_tolerance_golden.py \\
        > tests/golden/tolerance_reports.txt
"""

from __future__ import annotations

import pathlib
import sys
from typing import List

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "golden" / "tolerance_reports.txt"


def _witness(fault_set) -> str:
    if fault_set is None:
        return "None"
    return repr(sorted(fault_set.nodes(), key=repr))


def _scans():
    """Yield ``(label, call)`` pairs; ``call(workers)`` runs one scan."""
    from repro.core import check_tolerance, verify_construction, worst_case_diameter
    from repro.core.builder import build_routing
    from repro.faults import all_fault_sets, random_fault_sets
    from repro.graphs.registry import parse_graph_spec

    circulant = parse_graph_spec("circulant:24,1,2")
    kernel = build_routing(circulant, strategy="kernel")
    flower = build_routing(parse_graph_spec("flower:t=2,k=5"), strategy="circular")
    battery = list(random_fault_sets(circulant.nodes(), 2, 40, seed=11))

    yield "verify circulant:24,1,2/kernel exhaustive", lambda workers: (
        verify_construction(kernel, workers=workers)
    )
    yield "verify flower:t=2,k=5/circular exhaustive", lambda workers: (
        verify_construction(flower, workers=workers)
    )
    yield "verify circulant:24,1,2/kernel combined", lambda workers: (
        verify_construction(kernel, exhaustive_limit=10, seed=5, workers=workers)
    )
    yield "check circulant:24,1,2/kernel explicit", lambda workers: (
        check_tolerance(
            circulant, kernel.routing, 3, 2, fault_sets=battery, workers=workers
        )
    )
    yield "check circulant:24,1,2/kernel violated", lambda workers: (
        check_tolerance(circulant, kernel.routing, 2, 2, workers=workers)
    )
    yield "check flower:t=2,k=5/circular violated explicit", lambda workers: (
        check_tolerance(
            flower.graph,
            flower.routing,
            2,
            2,
            fault_sets=list(all_fault_sets(flower.graph.nodes(), 2)),
            workers=workers,
        )
    )
    yield "worst_case_diameter circulant:24,1,2/kernel", lambda workers: (
        worst_case_diameter(circulant, kernel.routing, battery, workers=workers)
    )


def render() -> str:
    """Return the golden text for the current source tree."""
    lines: List[str] = []
    for label, call in _scans():
        for workers in (1, 2):
            answer = call(workers)
            if isinstance(answer, tuple):
                worst, witness, evaluated = answer
                lines.append(
                    f"{label} workers={workers} evaluated={evaluated} "
                    f"worst={worst} witness={_witness(witness)}"
                )
                continue
            lines.append(f"{label} workers={workers} {answer!r}")
            lines.append(
                f"{label} workers={workers} evaluated={answer.evaluated} "
                f"worst={answer.worst_diameter} "
                f"witness={_witness(answer.worst_fault_set)}"
            )
    return "\n".join(lines) + "\n"


def test_tolerance_reports_match_golden():
    expected = GOLDEN.read_text().splitlines()
    actual = render().splitlines()
    assert actual == expected


if __name__ == "__main__":
    sys.stdout.write(render())
