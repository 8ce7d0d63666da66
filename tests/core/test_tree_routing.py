"""Unit tests for tree routings (Lemma 2)."""

import pytest

from repro.core import tree_routing, tree_routing_to_neighborhood, verify_tree_routing
from repro.exceptions import ConstructionError
from repro.graphs import are_internally_disjoint, is_simple_path
from repro.graphs import generators, synthetic


class TestTreeRoutingToSeparatingSet:
    def test_cycle_kernel(self):
        graph = generators.cycle_graph(8)
        separating = {2, 6}
        routes = tree_routing(graph, 0, separating, width=2)
        assert set(routes) <= separating
        assert len(routes) == 2
        assert not verify_tree_routing(graph, 0, separating, routes, 2)

    def test_routes_are_disjoint_simple_paths(self):
        graph = generators.hypercube_graph(3)
        separating = {1, 2, 4}  # neighbours of 0 separate it from the rest
        routes = tree_routing(graph, 7, separating, width=3)
        assert len(routes) == 3
        for endpoint, path in routes.items():
            assert path[0] == 7
            assert path[-1] == endpoint
            assert is_simple_path(graph, path)
        assert are_internally_disjoint(list(routes.values()))

    def test_direct_edge_shortcut(self):
        graph = generators.cycle_graph(8)
        separating = {1, 5}
        routes = tree_routing(graph, 0, separating, width=2)
        # 0 is adjacent to 1, so the route to 1 must be the single edge.
        assert routes[1] == [0, 1]

    def test_adjacent_majority_shortcut(self):
        graph = generators.complete_bipartite_graph(3, 4)
        left = [("a", i) for i in range(3)]
        source = ("b", 0)
        routes = tree_routing(graph, source, set(left), width=3)
        assert all(path == [source, target] for target, path in routes.items())

    def test_source_in_set_rejected(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 2, {2, 6}, width=2)

    def test_width_validation(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {2, 6}, width=0)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {2}, width=2)

    def test_not_separating_raises(self):
        # A single node never separates a cycle, so the anchor search must fail.
        graph = generators.cycle_graph(6)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {3}, width=1)

    def test_insufficient_connectivity(self):
        graph = generators.path_graph(6)
        # A path is only 1-connected: asking for 2 disjoint routes must fail.
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {2, 4}, width=2)

    def test_anchor_must_be_outside_set(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {2, 6}, width=2, anchor=2)

    def test_anchor_must_not_be_source(self):
        graph = generators.cycle_graph(8)
        with pytest.raises(ConstructionError):
            tree_routing(graph, 0, {2, 6}, width=2, anchor=0)

    def test_kernel_test_graph_bridge(self):
        graph = synthetic.kernel_test_graph(t=2)
        bridge = {("bridge", b) for b in range(3)}
        routes = tree_routing(graph, ("left", 0), bridge, width=3)
        assert len(routes) == 3
        assert set(routes) == bridge
        assert not verify_tree_routing(graph, ("left", 0), bridge, routes, 3)


class TestTreeRoutingToNeighborhood:
    def test_routes_reach_neighbourhood(self):
        graph = generators.cycle_graph(10)
        routes = tree_routing_to_neighborhood(graph, 0, 5, width=2)
        assert set(routes) == {4, 6}
        assert not verify_tree_routing(graph, 0, graph.neighbors(5), routes, 2)

    def test_source_is_center(self):
        graph = generators.hypercube_graph(3)
        routes = tree_routing_to_neighborhood(graph, 0, 0, width=3)
        assert len(routes) == 3
        assert all(path == [0, m] for m, path in routes.items())
        assert set(routes) <= graph.neighbors(0)

    def test_center_with_insufficient_degree(self):
        graph = generators.path_graph(5)
        with pytest.raises(ConstructionError):
            tree_routing_to_neighborhood(graph, 2, 2, width=3)

    def test_source_inside_neighborhood_rejected(self):
        graph = generators.cycle_graph(10)
        with pytest.raises(ConstructionError):
            tree_routing_to_neighborhood(graph, 4, 5, width=2)

    def test_flower_graph_tree_routings(self):
        graph, flowers = synthetic.flower_graph(t=2, k=4)
        source = ("ring", 7)
        for center in flowers:
            if source in graph.neighbors(center):
                continue
            routes = tree_routing_to_neighborhood(graph, source, center, width=3)
            assert len(routes) == 3
            assert set(routes) <= graph.neighbors(center)
            assert are_internally_disjoint(list(routes.values()))

    def test_combined_with_center_gives_disjoint_paths_to_center(self):
        # Lemma 5's premise: tree routing to Gamma(m) + edges to m yields
        # width internally disjoint x-m paths.
        graph = generators.circulant_graph(12, [1, 2])
        routes = tree_routing_to_neighborhood(graph, 0, 6, width=4)
        extended = [path + [6] for path in routes.values()]
        assert are_internally_disjoint(extended)


class TestVerifyTreeRouting:
    def test_detects_wrong_count(self):
        graph = generators.cycle_graph(8)
        routes = tree_routing(graph, 0, {2, 6}, width=2)
        del routes[list(routes)[0]]
        problems = verify_tree_routing(graph, 0, {2, 6}, routes, 2)
        assert any("expected 2 routes" in p for p in problems)

    def test_detects_wrong_endpoint(self):
        graph = generators.cycle_graph(8)
        problems = verify_tree_routing(graph, 0, {2, 6}, {3: [0, 1, 2, 3]}, 1)
        assert any("not in the separating set" in p for p in problems)

    def test_detects_missing_shortcut(self):
        graph = generators.cycle_graph(8)
        problems = verify_tree_routing(
            graph, 0, {1, 5}, {1: [0, 7, 6, 5, 4, 3, 2, 1]}, 1
        )
        assert any("direct edge" in p for p in problems)

    def test_detects_overlap(self):
        graph = generators.circulant_graph(8, [1, 2])
        routes = {2: [0, 1, 2], 3: [0, 1, 3]}
        problems = verify_tree_routing(graph, 0, {2, 3}, routes, 2)
        assert any("disjoint" in p for p in problems)


class TestPickAnchor:
    @staticmethod
    def _reference_anchor(graph, source, separating_set):
        from repro.graphs.traversal import bfs_distances

        remaining = graph.without_nodes(separating_set)
        reachable = set(bfs_distances(remaining, source))
        return next(node for node in remaining.nodes() if node not in reachable)

    @pytest.mark.parametrize(
        "graph",
        [
            generators.hypercube_graph(4),
            generators.circulant_graph(20, [1, 2, 5]),
            generators.petersen_graph(),
            generators.grid_graph(4, 5),
        ],
        ids=lambda graph: graph.name or "graph",
    )
    def test_matches_search_on_the_graph_without_the_set(self, graph):
        from repro.core.tree_routing import _pick_anchor
        from repro.graphs import minimum_separator

        separator = set(minimum_separator(graph))
        for source in graph.nodes():
            if source in separator:
                continue
            expected = self._reference_anchor(graph, source, separator)
            assert _pick_anchor(graph, source, separator) == expected

    def test_source_in_set_and_non_separating_set_rejected(self):
        from repro.core.tree_routing import _pick_anchor

        graph = generators.cycle_graph(6)
        with pytest.raises(ConstructionError):
            _pick_anchor(graph, 0, {0, 3})
        with pytest.raises(ConstructionError):
            _pick_anchor(graph, 0, {2})
