"""Unit tests for vertex / edge connectivity computations."""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.graphs import (
    Graph,
    connectivity_parameter,
    edge_connectivity,
    is_k_connected,
    local_edge_connectivity,
    local_node_connectivity,
    node_connectivity,
)
from repro.graphs import generators


class TestLocalNodeConnectivity:
    def test_path_graph(self):
        graph = generators.path_graph(5)
        assert local_node_connectivity(graph, 0, 4) == 1

    def test_cycle_graph(self):
        graph = generators.cycle_graph(6)
        assert local_node_connectivity(graph, 0, 3) == 2

    def test_adjacent_nodes_count_direct_edge(self):
        graph = generators.cycle_graph(6)
        assert local_node_connectivity(graph, 0, 1) == 2

    def test_complete_graph(self):
        graph = generators.complete_graph(5)
        assert local_node_connectivity(graph, 0, 4) == 4

    def test_same_node_rejected(self):
        graph = generators.path_graph(3)
        with pytest.raises(ValueError):
            local_node_connectivity(graph, 1, 1)

    def test_missing_node_rejected(self):
        graph = generators.path_graph(3)
        with pytest.raises(NodeNotFoundError):
            local_node_connectivity(graph, 0, 99)

    def test_cutoff(self):
        graph = generators.complete_graph(6)
        assert local_node_connectivity(graph, 0, 5, cutoff=2) >= 2

    def test_cutoff_zero_and_negative(self):
        graph = generators.hypercube_graph(4)
        assert local_node_connectivity(graph, 0, 3, cutoff=0) == 0
        with pytest.raises(ValueError):
            local_node_connectivity(graph, 0, 3, cutoff=-1)
        with pytest.raises(ValueError):
            local_node_connectivity(graph, 0, 1, cutoff=-1)

    def test_cutoff_caps_non_adjacent_pairs_exactly(self):
        graph = generators.hypercube_graph(4)
        assert not graph.has_edge(0, 3)
        for cutoff in range(1, 5):
            assert local_node_connectivity(graph, 0, 3, cutoff=cutoff) == cutoff
        assert local_node_connectivity(graph, 0, 3, cutoff=9) == 4

    def test_cutoff_on_adjacent_pairs_counts_the_edge(self):
        graph = generators.hypercube_graph(4)
        assert graph.has_edge(0, 1)
        assert local_node_connectivity(graph, 0, 1, cutoff=0) == 1
        assert local_node_connectivity(graph, 0, 1, cutoff=1) == 1
        assert local_node_connectivity(graph, 0, 1, cutoff=2) == 2
        assert local_node_connectivity(graph, 0, 1, cutoff=9) == 4

    def test_disconnected_pair(self):
        graph = Graph(edges=[(0, 1)], nodes=[2])
        assert local_node_connectivity(graph, 0, 2) == 0

    def test_hypercube_pair(self):
        graph = generators.hypercube_graph(3)
        assert local_node_connectivity(graph, 0, 7) == 3


class TestGlobalNodeConnectivity:
    def test_empty_and_single(self):
        assert node_connectivity(Graph()) == 0
        assert node_connectivity(Graph(nodes=[1])) == 0

    def test_disconnected(self):
        assert node_connectivity(Graph(edges=[(0, 1)], nodes=[2])) == 0

    def test_path(self):
        assert node_connectivity(generators.path_graph(6)) == 1

    def test_cycle(self):
        assert node_connectivity(generators.cycle_graph(9)) == 2

    def test_complete(self):
        assert node_connectivity(generators.complete_graph(7)) == 6

    def test_star_is_1_connected(self):
        assert node_connectivity(generators.star_graph(5)) == 1

    def test_hypercubes(self):
        for d in (2, 3, 4):
            assert node_connectivity(generators.hypercube_graph(d)) == d

    def test_petersen(self, petersen):
        assert node_connectivity(petersen) == 3

    def test_circulant(self):
        assert node_connectivity(generators.circulant_graph(10, [1, 2])) == 4

    def test_complete_bipartite(self):
        graph = generators.complete_bipartite_graph(3, 5)
        assert node_connectivity(graph) == 3

    def test_grid(self):
        assert node_connectivity(generators.grid_graph(4, 4)) == 2

    def test_torus(self):
        assert node_connectivity(generators.torus_graph(4, 4)) == 4

    def test_barbell_cut_vertex_free(self):
        # Two cliques joined by a path share a cut vertex => connectivity 1.
        graph = generators.barbell_graph(4, 2)
        assert node_connectivity(graph) == 1

    def test_wheel(self):
        assert node_connectivity(generators.wheel_graph(6)) == 3

    def test_harary(self):
        assert node_connectivity(generators.harary_graph(4, 11)) == 4
        assert node_connectivity(generators.harary_graph(3, 10)) == 3


class TestIsKConnected:
    def test_zero_is_trivial(self):
        assert is_k_connected(Graph(), 0)

    def test_cycle_thresholds(self):
        graph = generators.cycle_graph(8)
        assert is_k_connected(graph, 1)
        assert is_k_connected(graph, 2)
        assert not is_k_connected(graph, 3)

    def test_complete_graph_threshold(self):
        graph = generators.complete_graph(5)
        assert is_k_connected(graph, 4)
        assert not is_k_connected(graph, 5)

    def test_small_graph(self):
        graph = Graph(edges=[(0, 1)])
        assert is_k_connected(graph, 1)
        assert not is_k_connected(graph, 2)


class TestEdgeConnectivity:
    def test_path(self):
        assert edge_connectivity(generators.path_graph(4)) == 1

    def test_cycle(self):
        assert edge_connectivity(generators.cycle_graph(7)) == 2

    def test_complete(self):
        assert edge_connectivity(generators.complete_graph(5)) == 4

    def test_disconnected(self):
        assert edge_connectivity(Graph(edges=[(0, 1)], nodes=[2])) == 0

    def test_edge_ge_node_connectivity(self, petersen):
        assert edge_connectivity(petersen) >= node_connectivity(petersen)

    def test_local_edge_connectivity(self):
        graph = generators.cycle_graph(6)
        assert local_edge_connectivity(graph, 0, 3) == 2

    def test_local_edge_connectivity_validation(self):
        graph = generators.path_graph(3)
        with pytest.raises(ValueError):
            local_edge_connectivity(graph, 1, 1)
        with pytest.raises(NodeNotFoundError):
            local_edge_connectivity(graph, 0, 42)


class TestConnectivityParameter:
    def test_cycle_t_is_1(self):
        assert connectivity_parameter(generators.cycle_graph(10)) == 1

    def test_hypercube_t(self):
        assert connectivity_parameter(generators.hypercube_graph(4)) == 3

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            connectivity_parameter(Graph(edges=[(0, 1)], nodes=[5]))
