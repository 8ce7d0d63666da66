"""Property-based equivalence: bitset vs numpy kernels vs naive path.

For random graphs, routings (single routes and multiroutings) and fault
sets, the :class:`~repro.core.route_index.RouteIndex` evaluation must
reproduce the naive computation *node for node*: the same surviving route
graph (same node set, same arc set) and the same diameter — through the
bitset kernel (the default) and (when numpy is installed) the
packed-uint64 numpy backend, which must agree with each other
value-for-value.  The bounded decision API must
satisfy ``surviving_diameter_at_most(F, b) <=> surviving_diameter(F) <= b``
for every bound, and delta-derived cursors must equal from-scratch
evaluations — on every backend.  This is the contract that lets every
campaign, battery and sweep in the library ride the fast paths without
changing any observable result.

Without numpy the suite still runs: the numpy legs are skipped (the other
three stay enforced), which is exactly the no-numpy CI configuration.
"""

import random as _random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    RouteIndex,
    surviving_diameter,
    surviving_diameter_at_most,
    surviving_route_graph,
)
from repro.core.np_kernel import numpy_available
from repro.core.routing import MultiRouting, Routing
from repro.graphs import generators
from repro.graphs.traversal import shortest_path

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend not available"
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _shortest_path_routing(graph, rng):
    """A total routing assigning one BFS shortest path per ordered pair.

    Built directly (rather than via a paper construction) so the property
    test exercises arbitrary route shapes, including asymmetric ones: with
    probability 1/2 the routing is unidirectional and each direction gets an
    independently discovered path.
    """
    bidirectional = rng.random() < 0.5
    routing = Routing(graph, bidirectional=bidirectional)
    nodes = graph.nodes()
    for source in nodes:
        for target in nodes:
            if source == target or routing.has_route(source, target):
                continue
            path = shortest_path(graph, source, target)
            if path is not None:
                routing.set_route(source, target, path)
    return routing


def _random_multirouting(graph, rng):
    """A multirouting with the shortest path plus occasional detour routes."""
    routing = MultiRouting(graph, bidirectional=True)
    nodes = graph.nodes()
    for source in nodes:
        for target in nodes:
            if repr(source) >= repr(target):
                continue
            path = shortest_path(graph, source, target)
            if path is None:
                continue
            routing.add_route(source, target, path)
            if len(path) >= 2 and rng.random() < 0.5:
                # A detour through a neighbour of the source, when one exists.
                for middle in sorted(graph.neighbors(source), key=repr):
                    if middle in (source, target) or middle in path:
                        continue
                    tail = shortest_path(graph, middle, target)
                    if tail and source not in tail and len(set(tail)) == len(tail):
                        routing.add_route(source, target, [source] + tail)
                        break
    return routing


@st.composite
def graph_routing_faults(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    extra = draw(st.floats(min_value=0.0, max_value=0.4))
    multi = draw(st.booleans())
    graph = generators.random_connected_graph(n, extra_edge_probability=extra, seed=seed)
    rng = _random.Random(seed + 1)
    routing = (
        _random_multirouting(graph, rng) if multi else _shortest_path_routing(graph, rng)
    )
    fault_count = draw(st.integers(min_value=0, max_value=n))
    faults = set(rng.sample(graph.nodes(), fault_count))
    return graph, routing, faults


class TestIndexedEquivalence:
    @SETTINGS
    @given(graph_routing_faults())
    def test_surviving_graph_identical(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        naive = surviving_route_graph(graph, routing, faults)
        fast = surviving_route_graph(graph, routing, faults, index=index)
        assert fast == naive
        assert sorted(map(repr, fast.nodes())) == sorted(map(repr, naive.nodes()))
        assert sorted(map(repr, fast.edges())) == sorted(map(repr, naive.edges()))

    @SETTINGS
    @given(graph_routing_faults())
    def test_surviving_diameter_identical(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        assert surviving_diameter(
            graph, routing, faults, index=index
        ) == surviving_diameter(graph, routing, faults)

    @SETTINGS
    @given(graph_routing_faults())
    def test_index_is_reusable_across_fault_sets(self, case):
        """One index must serve many fault sets without cross-contamination."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        # Evaluate a different fault set first, then the real one.
        nodes = graph.nodes()
        other = set(nodes[: min(2, len(nodes))])
        index.surviving_diameter(other)
        assert surviving_diameter(
            graph, routing, faults, index=index
        ) == surviving_diameter(graph, routing, faults)

    @SETTINGS
    @given(graph_routing_faults())
    def test_all_kernels_agree(self, case):
        """Three-way equivalence: bitset == numpy kernel == naive path.

        The numpy leg silently degrades to two-way where numpy is not
        installed (the dedicated numpy suite below is skipped explicitly).
        """
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        naive = surviving_diameter(graph, routing, faults)
        assert index.surviving_diameter(faults, kernel="bitset") == naive
        if numpy_available():
            assert index.surviving_diameter(faults, kernel="numpy") == naive


class TestBoundedDecision:
    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_at_most_iff_diameter_leq_bound(self, case, bound):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        exact = surviving_diameter(graph, routing, faults)
        assert index.surviving_diameter_at_most(faults, bound) == (exact <= bound)
        assert surviving_diameter_at_most(
            graph, routing, faults, bound, index=index
        ) == (exact <= bound)
        assert surviving_diameter_at_most(graph, routing, faults, bound) == (
            exact <= bound
        )

    @SETTINGS
    @given(graph_routing_faults())
    def test_at_most_infinite_bound_always_holds(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        assert index.surviving_diameter_at_most(faults, float("inf"))

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_capped_evaluation_is_exact_within_the_cap(self, case, cap):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        exact = surviving_diameter(graph, routing, faults)
        capped = index.surviving_diameter(faults, cap=cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap


class TestCursorEquivalence:
    @SETTINGS
    @given(graph_routing_faults())
    def test_cursor_matches_fresh_evaluation(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(faults)
        assert cursor.diameter() == surviving_diameter(graph, routing, faults)
        assert cursor.surviving_route_graph() == surviving_route_graph(
            graph, routing, faults
        )

    @SETTINGS
    @given(graph_routing_faults())
    def test_with_added_matches_from_scratch(self, case):
        """Delta-derived cursors equal from-scratch evaluation for every node."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(faults)
        for node in graph.nodes():
            derived = cursor.with_added(node)
            grown = set(faults) | {node}
            assert derived.diameter() == surviving_diameter(graph, routing, grown)
            assert derived.surviving_route_graph() == surviving_route_graph(
                graph, routing, grown
            )

    @SETTINGS
    @given(graph_routing_faults())
    def test_with_added_chain_matches_from_scratch(self, case):
        """A chain of derivations (the greedy adversary's access pattern)."""
        graph, routing, faults = case
        index = RouteIndex(graph, routing)
        cursor = index.cursor(())
        grown = set()
        for node in sorted(faults, key=repr):
            cursor = cursor.with_added(node)
            grown.add(node)
            assert cursor.diameter() == surviving_diameter(graph, routing, grown)


@requires_numpy
class TestNumpyBackendEquivalence:
    """The numpy backend must be observationally identical to the bitset one.

    Exercised through the same random graph/routing/fault generator as the
    bitset equivalence above — including multiroutings, whose killed-arc
    resolution is the trickiest part of the packed kernel — so every shape
    of surviving route graph crosses both kernels.
    """

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_index_matches_naive(self, case):
        graph, routing, faults = case
        index = RouteIndex(graph, routing, backend="numpy")
        assert index.eval_backend == "numpy"
        assert index.surviving_diameter(faults) == surviving_diameter(
            graph, routing, faults
        )

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_numpy_capped_evaluation_is_exact_within_the_cap(self, case, cap):
        graph, routing, faults = case
        index = RouteIndex(graph, routing, backend="numpy")
        exact = surviving_diameter(graph, routing, faults)
        capped = index.surviving_diameter(faults, cap=cap)
        if exact <= cap:
            assert capped == exact
        else:
            assert capped > cap

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_numpy_bounded_decisions_match_bitset(self, case, bound):
        graph, routing, faults = case
        np_index = RouteIndex(graph, routing, backend="numpy")
        bs_index = RouteIndex(graph, routing, backend="bitset")
        assert np_index.surviving_diameter_at_most(
            faults, bound
        ) == bs_index.surviving_diameter_at_most(faults, bound)

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_batch_matches_bitset_batch(self, case):
        """The batch API returns identical values (and types) per backend."""
        graph, routing, faults = case
        np_index = RouteIndex(graph, routing, backend="numpy")
        bs_index = RouteIndex(graph, routing, backend="bitset")
        ordered = sorted(faults, key=repr)
        battery = [frozenset(ordered[:k]) for k in range(len(ordered) + 1)]
        np_values = np_index.surviving_diameters(battery)
        bs_values = bs_index.surviving_diameters(battery)
        assert np_values == bs_values
        assert [type(v) for v in np_values] == [type(v) for v in bs_values]
        assert np_index.surviving_diameters(
            battery, cap=2
        ) == bs_index.surviving_diameters(battery, cap=2)

    @SETTINGS
    @given(graph_routing_faults())
    def test_numpy_cursor_chain_matches_bitset(self, case):
        """with_added chains agree across backends, caps and bounds included."""
        graph, routing, faults = case
        np_cursor = RouteIndex(graph, routing, backend="numpy").cursor(())
        bs_cursor = RouteIndex(graph, routing, backend="bitset").cursor(())
        for position, node in enumerate(sorted(faults, key=repr)):
            np_cursor = np_cursor.with_added(node)
            bs_cursor = bs_cursor.with_added(node)
            bound = position % 4
            assert np_cursor.diameter_at_most(bound) == bs_cursor.diameter_at_most(
                bound
            )
            assert np_cursor.diameter() == bs_cursor.diameter()


class TestBatchedCandidateEquivalence:
    """The batched candidate API must equal per-candidate evaluation exactly.

    ``batch_with_added`` (and its wrapper ``candidate_diameters``) is the
    substrate of the batched greedy adversary; these properties pin it to
    the one-at-a-time ground truth on every backend, capped and uncapped.
    A capped batch may legitimately return ``inf`` for values above the
    cap, but finite values must be exact.
    """

    def _backends(self):
        return ("bitset", "numpy") if numpy_available() else ("bitset",)

    @SETTINGS
    @given(graph_routing_faults())
    def test_batch_with_added_matches_with_added(self, case):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            cursor = index.cursor(faults)
            trials = cursor.batch_with_added(candidates)
            reference = index.cursor(faults)
            for node, (child, value) in zip(candidates, trials):
                assert value == reference.with_added(node).diameter()
                assert child.diameter() == value

    @SETTINGS
    @given(graph_routing_faults(), st.integers(min_value=0, max_value=14))
    def test_capped_batch_finite_values_are_exact(self, case, cap):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        inf = float("inf")
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            trials = index.cursor(faults).batch_with_added(candidates, cap=cap)
            reference = index.cursor(faults)
            for node, (_child, value) in zip(candidates, trials):
                exact = reference.with_added(node).diameter()
                if exact <= cap:
                    assert value == exact
                elif value != inf:
                    # Above-cap values may come back exact from memoisation.
                    assert value == exact

    @SETTINGS
    @given(graph_routing_faults())
    def test_candidate_diameters_matches_from_scratch(self, case):
        graph, routing, faults = case
        candidates = [n for n in sorted(graph.nodes(), key=repr) if n not in faults]
        for backend in self._backends():
            index = RouteIndex(graph, routing, backend=backend)
            values = index.candidate_diameters(faults, candidates)
            for node, value in zip(candidates, values):
                assert value == surviving_diameter(
                    graph, routing, set(faults) | {node}
                )


class TestBatchedGreedyEquivalence:
    """Batched greedy must be byte-identical to the sequential adversary.

    The cap-pruned two-phase batch round, the sibling-bound memoisation and
    the numpy tensor path are all pure accelerations: for every graph,
    routing, seed, candidate budget and backend the chosen fault set — not
    just its diameter — must equal the sequential greedy's choice.
    """

    @SETTINGS
    @given(
        graph_routing_faults(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_batched_equals_sequential_across_backends(
        self, case, size, candidate_limit, seed
    ):
        from repro.faults.adversary import greedy_adversarial_fault_set

        graph, routing, _faults = case
        backends = ("bitset", "numpy") if numpy_available() else ("bitset",)
        picks = []
        for backend in backends:
            for batched in (False, True):
                index = RouteIndex(graph, routing, backend=backend)
                fault_set = greedy_adversarial_fault_set(
                    graph,
                    routing,
                    size,
                    candidate_limit=candidate_limit,
                    seed=seed,
                    index=index,
                    batched=batched,
                )
                picks.append(tuple(sorted(fault_set, key=repr)))
        assert len(set(picks)) == 1

    @SETTINGS
    @given(
        graph_routing_faults(),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10 ** 6),
    )
    def test_index_greedy_equals_sequential(self, case, size, seed):
        """The index-only entry point agrees with its own sequential path."""
        from repro.faults.adversary import greedy_fault_set_from_index

        graph, routing, _faults = case
        index = RouteIndex(graph, routing)
        batched = greedy_fault_set_from_index(
            index, size, candidate_limit=4, seed=seed, batched=True
        )
        sequential = greedy_fault_set_from_index(
            index, size, candidate_limit=4, seed=seed, batched=False
        )
        assert sorted(batched, key=repr) == sorted(sequential, key=repr)
