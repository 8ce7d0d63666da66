"""(d, f)-tolerance checking: measuring worst-case surviving diameters.

A routing is ``(d, f)``-tolerant when every fault set of at most ``f`` nodes
leaves a surviving route graph of diameter at most ``d``.  This module turns
that definition into executable checks:

* :func:`worst_case_diameter` evaluates a battery of fault sets and reports
  the worst surviving diameter found (and the fault set realising it);
* :func:`check_tolerance` compares that worst case against a claimed bound;
* :func:`verify_construction` does the same for a
  :class:`~repro.core.construction.ConstructionResult` using the guarantee
  recorded by the construction, choosing between exhaustive enumeration and
  the combined adversarial battery automatically based on problem size.

Exhaustive enumeration is exact; the adversarial battery yields a certified
*lower bound* on the worst case together with an upper-bound check (any
violation found disproves the claimed guarantee; absence of violations over
the battery is strong — but not exhaustive — evidence).

Every scan is planned by the suite's
:func:`~repro.scenarios.suite.plan_campaign` — ``"explicit"`` shards for a
given or combined battery, ``"exhaustive"`` shards per fault-set size — and
evaluated on the shard executor against one in-memory
:class:`~repro.core.route_index.RouteIndex`
(:func:`~repro.faults.engine.evaluate_on_index`, strict: a failed shard
raises).  Tolerance checks use the claimed bound as an eccentricity cap and
stop at the first violation, whose exact diameter becomes the report's
witness.  Workers regenerate exhaustive slices locally, so enumerations
parallelise like random batteries.  The scans stay outside the scenario
suite because they take in-memory routings and batteries, while the suite
is keyed on scenario specs and stores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.construction import ConstructionResult
from repro.core.route_index import RouteIndex
from repro.core.routing import MultiRouting, Routing
from repro.core.surviving import surviving_diameter
from repro.faults.adversary import combined_fault_sets, count_fault_sets
from repro.faults.engine import DEFAULT_CHUNK_SIZE, evaluate_on_index
from repro.faults.models import FaultSet
from repro.graphs.graph import Graph

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]


@dataclasses.dataclass
class ToleranceReport:
    """Outcome of a tolerance evaluation.

    Attributes
    ----------
    claimed_diameter, max_faults:
        The ``(d, f)`` bound that was checked.
    worst_diameter:
        The largest surviving diameter observed over the evaluated fault
        sets.  When the claimed bound is violated, the evaluation stops at
        the first violating fault set (the bounded-diameter decision path),
        so this is the exact diameter of that witness rather than the
        battery-wide maximum.
    worst_fault_set:
        A fault set realising ``worst_diameter``.
    evaluated:
        Number of fault sets evaluated (up to and including the violation
        witness when the bound is violated).
    exhaustive:
        ``True`` when the check enumerated every fault set of size at most
        ``max_faults`` (stopping early only on a violation), making a
        holding report a proof rather than evidence.
    """

    claimed_diameter: float
    max_faults: int
    worst_diameter: float
    worst_fault_set: Optional[FaultSet]
    evaluated: int
    exhaustive: bool

    @property
    def holds(self) -> bool:
        """``True`` when no evaluated fault set violated the claimed bound."""
        return self.worst_diameter <= self.claimed_diameter

    def __repr__(self) -> str:
        status = "holds" if self.holds else "VIOLATED"
        mode = "exhaustive" if self.exhaustive else "sampled"
        return (
            f"<ToleranceReport ({self.claimed_diameter}, {self.max_faults}) {status}: "
            f"worst={self.worst_diameter} over {self.evaluated} {mode} fault sets>"
        )


def _scan_index(
    graph: Graph, routing: AnyRouting, index, workers: int
) -> RouteIndex:
    """Return the index a scan evaluates against, refusing bad arguments."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if index is None:
        return RouteIndex(graph, routing)
    if not index.matches(graph, routing):
        raise ValueError(
            "the supplied RouteIndex was built for a different graph or routing"
        )
    return index


def _bounded_scan(
    index: RouteIndex, tasks: Iterable, bound: float, workers: int
) -> Tuple[float, Optional[FaultSet], int]:
    """Early-exit scan: is every fault set's surviving diameter <= ``bound``?

    Returns ``(worst_diameter, worst_fault_set, evaluated)``.  The scan
    stops at the *first* violating fault set in battery order: then
    ``worst_diameter`` is the exact diameter of that witness and
    ``evaluated`` counts the sets inspected up to and including it.  When
    the bound holds, ``worst_diameter`` is the battery-wide maximum of the
    outcomes (the first set realising it wins; ``inf`` dominates).

    Shards are evaluated whole, so a violation costs at most one chunk of
    extra work in-process; the pooled supervisor keeps a sliding window of
    a few shards per worker in flight, so an early exit leaves at most one
    window behind.  An empty battery is refused.
    """
    worst = -1.0
    worst_set: Optional[FaultSet] = None
    evaluated = 0
    with contextlib.closing(evaluate_on_index(index, tasks, workers)) as outcomes:
        for fault_set, diameter in outcomes:
            evaluated += 1
            if diameter > bound:
                return index.surviving_diameter(fault_set), fault_set, evaluated
            if diameter > worst:
                worst = diameter
                worst_set = fault_set
    if evaluated == 0:
        raise ValueError("no fault sets to evaluate")
    return worst, worst_set, evaluated


def worst_case_diameter(
    graph: Graph,
    routing: AnyRouting,
    fault_sets: Iterable[FaultSet],
    index=None,
    workers: int = 1,
) -> tuple:
    """Return ``(worst_diameter, worst_fault_set, evaluated_count)``.

    The baseline (no faults) is *not* added automatically; include the empty
    fault set in ``fault_sets`` if the fault-free diameter matters.  An
    empty battery raises :class:`ValueError`.

    The battery is evaluated exactly, incrementally against a
    :class:`~repro.core.route_index.RouteIndex` (pass ``index`` to reuse a
    pre-built one) and, when ``workers > 1``, sharded across a process pool.
    """
    from repro.scenarios.suite import plan_campaign

    index = _scan_index(graph, routing, index, workers)
    tasks = plan_campaign("explicit", 0, DEFAULT_CHUNK_SIZE, fault_sets=fault_sets)
    return _bounded_scan(index, tasks, math.inf, workers)


def check_tolerance(
    graph: Graph,
    routing: AnyRouting,
    diameter_bound: float,
    max_faults: int,
    fault_sets: Optional[Iterable[FaultSet]] = None,
    exhaustive_limit: int = 20000,
    concentrator: Sequence[Node] = (),
    seed: Optional[int] = 0,
    index=None,
    workers: int = 1,
    candidate_limit: int = 40,
) -> ToleranceReport:
    """Check whether ``routing`` is ``(diameter_bound, max_faults)``-tolerant.

    When ``fault_sets`` is omitted, exhaustive enumeration of every fault set
    of size at most ``max_faults`` is used if it stays below
    ``exhaustive_limit`` sets; otherwise the combined adversarial battery from
    :func:`repro.faults.adversary.combined_fault_sets` is used.  An empty
    ``fault_sets`` battery raises :class:`ValueError`.

    Every fault set is checked with an eccentricity cap of
    ``diameter_bound`` (an evaluation stops at the first BFS level that
    exceeds the cap) and the scan stops at the first violating fault set,
    whose exact diameter is reported.  Exhaustive enumerations are planned
    as generative shards (deterministic ``itertools.combinations``
    offsets), so they shard across the worker pool like random batteries
    do.  ``index`` is reused when given (it also accelerates the greedy
    adversarial battery generation); with ``workers > 1`` its slim copy is
    shipped to the pool.  ``candidate_limit`` is the greedy adversary's
    per-round candidate budget (combined battery path only).
    """
    from repro.scenarios.suite import plan_campaign

    index = _scan_index(graph, routing, index, workers)
    n = graph.number_of_nodes()
    exhaustive = (
        fault_sets is None and count_fault_sets(n, max_faults) <= exhaustive_limit
    )
    if exhaustive:
        tasks = itertools.chain.from_iterable(
            plan_campaign(
                "exhaustive",
                size,
                DEFAULT_CHUNK_SIZE,
                diameter_bound,
                total=math.comb(n, size),
            )
            for size in range(min(max_faults, n) + 1)
        )
    else:
        if fault_sets is None:
            fault_sets = combined_fault_sets(
                graph,
                routing,
                max_faults,
                concentrator=concentrator,
                seed=seed,
                index=index,
                candidate_limit=candidate_limit,
            )
        tasks = plan_campaign(
            "explicit", 0, DEFAULT_CHUNK_SIZE, diameter_bound, fault_sets=fault_sets
        )
    worst, worst_set, evaluated = _bounded_scan(index, tasks, diameter_bound, workers)
    return ToleranceReport(
        claimed_diameter=diameter_bound,
        max_faults=max_faults,
        worst_diameter=worst,
        worst_fault_set=worst_set,
        evaluated=evaluated,
        exhaustive=exhaustive,
    )


def verify_construction(
    result: ConstructionResult,
    fault_sets: Optional[Iterable[FaultSet]] = None,
    exhaustive_limit: int = 20000,
    seed: Optional[int] = 0,
    workers: int = 1,
    candidate_limit: int = 40,
) -> ToleranceReport:
    """Check a construction against its own recorded guarantee.

    Uses the guarantee stored in ``result.guarantee`` (e.g. ``(4, t)`` for the
    tri-circular routing) and the construction's concentrator to aim the
    targeted fault sets at the right structures.  ``workers`` shards the
    battery evaluation across a process pool; ``candidate_limit`` tunes the
    greedy adversary inside the combined battery.
    """
    return check_tolerance(
        result.graph,
        result.routing,
        result.guarantee.diameter_bound,
        result.guarantee.max_faults,
        fault_sets=fault_sets,
        exhaustive_limit=exhaustive_limit,
        concentrator=result.concentrator,
        seed=seed,
        workers=workers,
        candidate_limit=candidate_limit,
    )


def diameter_profile(
    graph: Graph,
    routing: AnyRouting,
    fault_sets: Iterable[FaultSet],
    index=None,
) -> List[tuple]:
    """Return ``(fault_set, surviving_diameter)`` for every supplied fault set.

    Handy for tabulating how the surviving diameter degrades as specific fault
    patterns are applied (used by the examples and the figure benches).
    """
    profile = []
    for fault_set in fault_sets:
        profile.append(
            (fault_set, surviving_diameter(graph, routing, fault_set, index=index))
        )
    return profile
