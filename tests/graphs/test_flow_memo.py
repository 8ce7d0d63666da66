"""The node-split flow network memoised on a graph.

Connectivity, separators and disjoint paths share one split network per
graph (:func:`repro.graphs.flow.vertex_split`).  These tests pin the memo's
contract: every mutator drops it, so a queried-then-mutated graph answers
exactly like a freshly built one, and it never shows in ``copy()``,
pickling or ``==``.
"""

import pickle

import pytest

from repro.graphs import (
    generators,
    local_node_connectivity,
    minimum_separator,
    node_connectivity,
    vertex_disjoint_paths,
)
from repro.graphs.flow import vertex_split


def answers(graph):
    """Every flow-derived answer the constructions use, for one graph."""
    nodes = graph.nodes()
    return (
        node_connectivity(graph),
        sorted(minimum_separator(graph), key=repr),
        [vertex_disjoint_paths(graph, nodes[0], other) for other in nodes[1:6]],
        [local_node_connectivity(graph, nodes[0], other) for other in nodes[1:6]],
    )


def base_graph():
    return generators.circulant_graph(14, [1, 3])


MUTATIONS = {
    "add_edge": lambda graph: graph.add_edge(0, 7),
    "remove_edge": lambda graph: graph.remove_edge(0, 1),
    "add_node": lambda graph: (graph.add_node("x"), graph.add_edge("x", 0), graph.add_edge("x", 5)),
    "remove_node": lambda graph: graph.remove_node(4),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_query_then_mutate_matches_fresh_graph(name):
    queried = base_graph()
    answers(queried)
    MUTATIONS[name](queried)
    fresh = base_graph()
    MUTATIONS[name](fresh)
    assert answers(queried) == answers(fresh)


def test_bare_add_node_drops_the_memo():
    graph = base_graph()
    before = vertex_split(graph, unit_edges=False)
    graph.add_node("isolated")
    after = vertex_split(graph, unit_edges=False)
    assert after is not before
    assert "isolated" in after.position
    assert node_connectivity(graph) == 0


def test_split_network_is_built_once_per_variant():
    graph = base_graph()
    connectivity = vertex_split(graph, unit_edges=False)
    paths = vertex_split(graph, unit_edges=True)
    assert connectivity is not paths
    answers(graph)
    assert vertex_split(graph, unit_edges=False) is connectivity
    assert vertex_split(graph, unit_edges=True) is paths


def test_memo_is_invisible_to_pickle_copy_and_equality():
    graph = base_graph()
    pristine = pickle.dumps(graph)
    untouched = base_graph()
    answers(graph)
    assert pickle.dumps(graph) == pristine
    assert pickle.dumps(graph.copy()) == pickle.dumps(untouched.copy())
    assert graph == untouched
    assert graph.copy() == untouched
    restored = pickle.loads(pickle.dumps(graph))
    assert restored == graph
    assert answers(restored) == answers(untouched)
