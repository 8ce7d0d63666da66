"""The bitset diameter kernel, pinned to the naive oracle ``core/surviving.py``.

Every registry family at its default parameters, under every strategy that
builds on it plus a plain shortest-path routing, is evaluated on empty,
random and disconnecting fault sets at caps ``0..3`` and ``None``.  Values
must equal the oracle's exactly (``inf`` whenever the true diameter exceeds
the cap), and every witness the kernel returns is checked against the naive
surviving route graph.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro.core import RouteIndex, kernel_routing
from repro.core.builder import available_strategies, build_routing
from repro.core.route_index import _rows_diameter_witness
from repro.core.routing import Routing
from repro.core.surviving import surviving_diameter, surviving_route_graph
from repro.faults.simulation import BFS_STRATEGY
from repro.graphs import generators
from repro.graphs.registry import GRAPH_FAMILIES
from repro.graphs.traversal import INFINITY, bfs_distances, shortest_path

CAPS = (None, 0, 1, 2, 3)


def _shortest_path_routing(graph) -> Routing:
    """A one-way shortest-path route for every connected ordered pair.

    Built for every family, so families on which no construction applies
    (the disconnected ``gnp`` default) still reach the kernel.
    """
    routing = Routing(graph, bidirectional=False)
    for source in graph.nodes():
        for target in graph.nodes():
            if source != target:
                path = shortest_path(graph, source, target)
                if path is not None:
                    routing.set_route(source, target, path)
    return routing


def _routings(graph) -> Dict[str, object]:
    """Every strategy that builds on ``graph``, keyed by strategy name."""
    built = {"shortest-paths": _shortest_path_routing(graph)}
    for strategy in available_strategies():
        try:
            built[strategy] = build_routing(graph, strategy=strategy).routing
        except Exception:  # not applicable to this family
            continue
    return built


def _fault_sets(graph, seed: int) -> List[Tuple[str, frozenset]]:
    """Empty, random and disconnecting fault sets for ``graph``."""
    nodes = graph.nodes()
    rng = random.Random(seed)
    sets = [("empty", frozenset())]
    for size in (1, 2, 3):
        if size < len(nodes):
            for _ in range(2):
                sets.append((f"random-{size}", frozenset(rng.sample(nodes, size))))
    # Failing every neighbour of a node strands it: nothing routes out of it.
    for node in nodes[:2]:
        cut = frozenset(graph.neighbors(node))
        if len(nodes) - len(cut) >= 2:
            sets.append(("isolating", cut))
    return sets


def _check_witnesses(naive, value, witness, capped, cap, nodes) -> None:
    assert witness is None or capped is None
    if value != INFINITY:
        assert witness is None and capped is None
        return
    if cap is None:
        assert witness is not None, "an uncapped inf must witness the cut"
    if witness is not None:
        source_bit, mask = witness
        source = nodes[source_bit.bit_length() - 1]
        assert mask, "a disconnection witness names at least one node"
        reached = bfs_distances(naive, source)
        for nid in range(len(nodes)):
            if mask >> nid & 1:
                assert nodes[nid] not in reached
    if capped is not None:
        source_bit, mask, lb = capped
        source = nodes[source_bit.bit_length() - 1]
        assert mask, "a capped witness names at least one node"
        assert lb > cap
        distances = bfs_distances(naive, source)
        for nid in range(len(nodes)):
            if mask >> nid & 1:
                assert distances.get(nodes[nid], INFINITY) >= lb


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
def test_kernel_matches_the_naive_oracle(family):
    graph = GRAPH_FAMILIES[family].build()
    routings = _routings(graph)
    for offset, (strategy, routing) in enumerate(sorted(routings.items())):
        index = RouteIndex(graph, routing, backend="bitset")
        nodes = index._nodes
        for kind, faults in _fault_sets(graph, seed=offset):
            exact = surviving_diameter(graph, routing, faults)
            naive = surviving_route_graph(graph, routing, faults)
            mask = index._fault_mask(faults)
            rows = index._surviving_rows(mask)
            alive = index._full_mask & ~mask
            for cap in CAPS:
                label = (strategy, kind, sorted(faults, key=repr), cap)
                value, witness, capped = _rows_diameter_witness(
                    rows, alive, index._base_rows, index._base_succ, cap
                )
                expected = exact if cap is None or exact <= cap else INFINITY
                assert value == expected, label
                assert index.surviving_diameter(faults, cap=cap) == expected, label
                assert index.cursor(faults).diameter(cap=cap) == expected, label
                _check_witnesses(naive, value, witness, capped, cap, nodes)


def test_isolating_fault_sets_disconnect():
    """The disconnecting sets above really exercise the cut path."""
    graph = generators.cycle_graph(12)
    routing = kernel_routing(graph).routing
    index = RouteIndex(graph, routing, backend="bitset")
    faults = frozenset(graph.neighbors(graph.nodes()[0]))
    assert surviving_diameter(graph, routing, faults) == INFINITY
    mask = index._fault_mask(faults)
    value, witness, capped = _rows_diameter_witness(
        index._surviving_rows(mask),
        index._full_mask & ~mask,
        index._base_rows,
        index._base_succ,
    )
    assert value == INFINITY and witness is not None and capped is None


def test_trivial_graphs():
    rows, succ = [0b10, 0b01], [[1], [0]]
    assert _rows_diameter_witness([0, 0], 0, rows, succ) == (INFINITY, None, None)
    assert _rows_diameter_witness([0, 0], 0b10, rows, succ) == (0, None, None)
    assert _rows_diameter_witness(rows, 0b11, rows, succ) == (1, None, None)
    assert _rows_diameter_witness(rows, 0b11, rows, succ, cap=0) == (
        INFINITY,
        None,
        (0b01, 0b10, 1),
    )
    # One arc of the two-cycle gone: node 1 reaches nothing.
    assert _rows_diameter_witness([0b10, 0], 0b11, rows, succ) == (
        INFINITY,
        (0b10, 0b01),
        None,
    )


def test_base_successor_lists_match_the_rows():
    graph = generators.circulant_graph(12, [1, 2])
    index = RouteIndex(graph, kernel_routing(graph).routing)
    for row, succ in zip(index._base_rows, index._base_succ):
        assert succ == [t for t in range(row.bit_length()) if row >> t & 1]
    state_index = RouteIndex.from_state(index.export_state())
    assert state_index._base_succ == index._base_succ


class TestCampaignRowsRecordTheKernel:
    @pytest.fixture(scope="class")
    def workload(self):
        graph = generators.circulant_graph(24, [1, 2])
        return graph, kernel_routing(graph).routing

    def test_engine_rows(self, workload):
        from repro.faults.engine import DEFAULT_CHUNK_SIZE, evaluate_on_index
        from repro.scenarios.suite import fold_campaign, plan_campaign

        graph, routing = workload
        index = RouteIndex(graph, routing)
        tasks = plan_campaign("random", 1, DEFAULT_CHUNK_SIZE, total=5, tag="size=1")
        row = fold_campaign(
            1, evaluate_on_index(index, tasks), None, index.eval_backend
        )
        assert row.bfs_strategy == BFS_STRATEGY == "batched"
        assert row.as_row()["bfs"] == "batched"
