"""Unit tests for the Dinic max-flow engine."""

import pytest

from repro.graphs.flow import FlowNetwork, unit_max_flow


class TestFlowNetworkBasics:
    def test_add_arc_and_capacity(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 3)
        assert network.capacity("s", "t") == 3
        assert network.capacity("t", "s") == 0

    def test_capacity_accumulates(self):
        network = FlowNetwork()
        network.add_arc(0, 1, 2)
        network.add_arc(0, 1, 3)
        assert network.capacity(0, 1) == 5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork().add_arc(0, 1, -1)

    def test_nodes(self):
        network = FlowNetwork()
        network.add_arc(0, 1)
        network.add_node(5)
        assert set(network.nodes()) == {0, 1, 5}

    def test_max_flow_same_endpoints(self):
        network = FlowNetwork()
        network.add_arc(0, 1)
        with pytest.raises(ValueError):
            network.max_flow(0, 0)

    def test_max_flow_unknown_nodes(self):
        network = FlowNetwork()
        assert network.max_flow("a", "b") == 0


class TestMaxFlowValues:
    def test_single_arc(self):
        network = FlowNetwork()
        network.add_arc("s", "t", 4)
        assert network.max_flow("s", "t") == 4

    def test_series_bottleneck(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 5)
        network.add_arc("a", "t", 2)
        assert network.max_flow("s", "t") == 2

    def test_parallel_paths(self):
        network = FlowNetwork()
        for middle in ("a", "b", "c"):
            network.add_arc("s", middle, 1)
            network.add_arc(middle, "t", 1)
        assert network.max_flow("s", "t") == 3

    def test_classic_diamond(self):
        # The textbook network where a naive augmenting path needs residual arcs.
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_arc("s", "b", 1)
        network.add_arc("a", "b", 1)
        network.add_arc("a", "t", 1)
        network.add_arc("b", "t", 1)
        assert network.max_flow("s", "t") == 2

    def test_disconnected_sink(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_node("t")
        assert network.max_flow("s", "t") == 0

    def test_cutoff_stops_early(self):
        network = FlowNetwork()
        for middle in range(5):
            network.add_arc("s", middle, 1)
            network.add_arc(middle, "t", 1)
        assert network.max_flow("s", "t", cutoff=2) == 2

    def test_larger_grid_flow(self):
        # 3x3 grid of unit arcs from left column to right column.
        network = FlowNetwork()
        for row in range(3):
            network.add_arc("s", ("l", row), 1)
            network.add_arc(("r", row), "t", 1)
            network.add_arc(("l", row), ("r", row), 1)
        assert network.max_flow("s", "t") == 3

    def test_integer_capacities(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 10)
        network.add_arc("a", "t", 7)
        network.add_arc("s", "t", 4)
        assert network.max_flow("s", "t") == 11


class TestMinCut:
    def test_min_cut_reachable_after_flow(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 1)
        network.add_arc("a", "t", 1)
        network.max_flow("s", "t")
        reachable = network.min_cut_reachable("s")
        assert "s" in reachable
        assert "t" not in reachable

    def test_min_cut_separates_bottleneck(self):
        network = FlowNetwork()
        network.add_arc("s", "a", 5)
        network.add_arc("a", "b", 1)
        network.add_arc("b", "t", 5)
        network.max_flow("s", "t")
        reachable = network.min_cut_reachable("s")
        assert "a" in reachable
        assert "b" not in reachable


class TestUnitMaxFlow:
    def test_unit_max_flow_path(self):
        arcs = [(0, 1), (1, 2)]
        assert unit_max_flow(arcs, 0, 2) == 1

    def test_unit_max_flow_disjoint_paths(self):
        arcs = [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        assert unit_max_flow(arcs, 0, 4) == 3

    def test_unit_max_flow_with_cutoff(self):
        arcs = [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]
        assert unit_max_flow(arcs, 0, 4, cutoff=1) == 1

    def test_unit_max_flow_no_path(self):
        assert unit_max_flow([(0, 1)], 0, 5) == 0


class TestCutoffContract:
    def test_zero_cutoff_returns_zero_without_work(self):
        arcs = [(0, 1), (1, 3), (0, 2), (2, 3)]
        assert unit_max_flow(arcs, 0, 3, cutoff=0) == 0
        network = FlowNetwork()
        for u, v in arcs:
            network.add_arc(u, v, 1)
        assert network.max_flow(0, 3, cutoff=0) == 0
        assert network.flow_arcs() == []
        assert network.capacity(0, 1) == 1

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError):
            unit_max_flow([(0, 1)], 0, 1, cutoff=-1)

    def test_cutoff_caps_exactly(self):
        arcs = [(0, 1), (1, 3), (0, 2), (2, 3)]
        assert unit_max_flow(arcs, 0, 3, cutoff=1) == 1
        assert unit_max_flow(arcs, 0, 3, cutoff=5) == 2


class TestReuse:
    def _diamond(self):
        network = FlowNetwork()
        for u, v in [("s", "a"), ("s", "b"), ("a", "b"), ("a", "t"), ("b", "t")]:
            network.add_arc(u, v, 1)
        return network

    def test_reset_restores_build_capacities(self):
        network = self._diamond()
        assert network.max_flow("s", "t") == 2
        assert network.capacity("s", "a") == 0
        network.reset()
        assert network.capacity("s", "a") == 1
        assert network.capacity("a", "s") == 0
        assert network.max_flow("s", "t") == 2

    def test_reused_network_answers_like_fresh_ones(self):
        network = self._diamond()
        for source, sink in [("s", "t"), ("a", "t"), ("s", "b"), ("b", "t")]:
            network.reset()
            fresh = self._diamond()
            assert network.max_flow(source, sink) == fresh.max_flow(source, sink)
            assert network.min_cut_reachable(source) == fresh.min_cut_reachable(source)
            assert network.flow_arcs() == fresh.flow_arcs()

    def test_flow_arcs_follow_insertion_order(self):
        network = self._diamond()
        network.max_flow("s", "t")
        assert network.flow_arcs() == [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")]

    def test_explicit_reverse_arc_accumulates_onto_the_pair(self):
        network = FlowNetwork()
        network.add_arc(0, 1, 2)
        network.add_arc(1, 0, 3)
        assert network.capacity(0, 1) == 2
        assert network.capacity(1, 0) == 3
        assert network.max_flow(1, 0) == 3
        assert network.flow_arcs() == [(1, 0)]
