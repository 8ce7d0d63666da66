"""Cross-validation of the graph substrate against networkx.

The library itself never imports networkx; these tests use it purely as an
independent oracle for connectivity, shortest paths, diameters and separator
sizes on randomly generated instances, so that a bug in the from-scratch
substrate cannot silently skew every downstream theorem check.
"""

import random

import pytest

networkx = pytest.importorskip("networkx")

from repro.graphs import (
    Graph,
    diameter,
    distance,
    edge_connectivity,
    girth,
    is_connected,
    local_node_connectivity,
    minimum_separator,
    node_connectivity,
    vertex_disjoint_paths,
)
from repro.graphs import generators


def to_networkx(graph: Graph):
    nx_graph = networkx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


def random_graphs(count=8, seed=123):
    rng = random.Random(seed)
    graphs = []
    for index in range(count):
        n = rng.randint(8, 22)
        p = rng.uniform(0.15, 0.5)
        graphs.append(generators.gnp_random_graph(n, p, seed=rng.randint(0, 10 ** 6)))
    return graphs


NAMED = [
    generators.cycle_graph(11),
    generators.hypercube_graph(3),
    generators.petersen_graph(),
    generators.grid_graph(3, 4),
    generators.circulant_graph(12, [1, 3]),
    generators.complete_bipartite_graph(3, 4),
]


@pytest.mark.parametrize("graph", NAMED, ids=lambda g: g.name)
class TestNamedGraphsAgainstNetworkx:
    def test_connectivity_matches(self, graph):
        assert node_connectivity(graph) == networkx.node_connectivity(to_networkx(graph))

    def test_edge_connectivity_matches(self, graph):
        assert edge_connectivity(graph) == networkx.edge_connectivity(to_networkx(graph))

    def test_diameter_matches(self, graph):
        assert diameter(graph) == networkx.diameter(to_networkx(graph))

    def test_is_connected_matches(self, graph):
        assert is_connected(graph) == networkx.is_connected(to_networkx(graph))


class TestRandomGraphsAgainstNetworkx:
    @pytest.mark.parametrize("index,graph", list(enumerate(random_graphs())))
    def test_connectivity_and_distances(self, index, graph):
        nx_graph = to_networkx(graph)
        assert is_connected(graph) == networkx.is_connected(nx_graph)
        if not is_connected(graph):
            return
        assert node_connectivity(graph) == networkx.node_connectivity(nx_graph)
        nodes = graph.nodes()
        rng = random.Random(index)
        for _ in range(5):
            u, v = rng.sample(nodes, 2)
            assert distance(graph, u, v) == networkx.shortest_path_length(nx_graph, u, v)

    @pytest.mark.parametrize("index,graph", list(enumerate(random_graphs(count=5, seed=77))))
    def test_local_connectivity(self, index, graph):
        if not is_connected(graph):
            return
        nx_graph = to_networkx(graph)
        nodes = graph.nodes()
        rng = random.Random(index + 1000)
        for _ in range(4):
            u, v = rng.sample(nodes, 2)
            expected = networkx.connectivity.local_node_connectivity(nx_graph, u, v)
            assert local_node_connectivity(graph, u, v) == expected
            assert len(vertex_disjoint_paths(graph, u, v)) == expected

    @pytest.mark.parametrize("index,graph", list(enumerate(random_graphs(count=5, seed=999))))
    def test_minimum_separator_size(self, index, graph):
        if not is_connected(graph):
            return
        n = graph.number_of_nodes()
        if all(graph.degree(node) == n - 1 for node in graph.nodes()):
            return
        separator = minimum_separator(graph)
        assert len(separator) == networkx.node_connectivity(to_networkx(graph))


class TestRepeatedQueriesAgainstNetworkx:
    @pytest.mark.parametrize("index,graph", list(enumerate(random_graphs(count=4, seed=4242))))
    def test_two_queries_on_one_graph_object(self, index, graph):
        # Both queries reuse the split network memoised on ``graph``.
        if not is_connected(graph):
            return
        nx_graph = to_networkx(graph)
        kappa = networkx.node_connectivity(nx_graph)
        assert node_connectivity(graph) == kappa
        n = graph.number_of_nodes()
        if any(graph.degree(node) != n - 1 for node in graph.nodes()):
            assert len(minimum_separator(graph)) == kappa
        nodes = graph.nodes()
        rng = random.Random(index)
        for _ in range(3):
            u, v = rng.sample(nodes, 2)
            expected = networkx.connectivity.local_node_connectivity(nx_graph, u, v)
            assert local_node_connectivity(graph, u, v) == expected
            assert len(vertex_disjoint_paths(graph, u, v)) == expected
        assert node_connectivity(graph) == kappa


class TestGirthAgainstNetworkx:
    @pytest.mark.parametrize("graph", NAMED, ids=lambda g: g.name)
    def test_girth_matches(self, graph):
        expected = networkx.girth(to_networkx(graph)) if hasattr(networkx, "girth") else None
        if expected is None:
            pytest.skip("networkx version without girth()")
        assert girth(graph) == expected
