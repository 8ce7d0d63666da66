"""Vertex and edge connectivity via Menger's theorem and max-flow.

The constructions in the paper are parameterised by the node-connectivity
``t + 1`` of the underlying graph, so an exact connectivity computation is a
prerequisite for everything else.  We use the classical reduction:

* **local vertex connectivity** ``kappa(u, v)`` for non-adjacent ``u, v`` is
  the max flow from ``u`` to ``v`` in the *node-split* digraph, where every
  node ``x`` becomes ``x_in -> x_out`` with capacity 1 and every undirected
  edge ``{x, y}`` becomes the two arcs ``x_out -> y_in`` and ``y_out -> x_in``
  with capacity ``n + 1`` (:func:`repro.graphs.flow.vertex_split` builds that
  network once per graph and reuses it for every pair);
* **global vertex connectivity** is the minimum of ``kappa(v, w)`` over a
  dominating choice of pairs (a fixed node against all non-neighbours, plus
  all pairs of its neighbours' non-adjacent pairs) — we use the simpler exact
  variant of Even's algorithm: minimise over one fixed node paired with every
  non-neighbour, and over all non-adjacent pairs among that node's neighbours.

Edge connectivity uses the same machinery without node splitting.
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import FlowNetwork, vertex_split
from repro.graphs.graph import Graph
from repro.graphs.traversal import is_connected

Node = Hashable


def local_node_connectivity(
    graph: Graph, source: Node, target: Node, cutoff: Optional[int] = None
) -> int:
    """Return ``kappa(source, target)``: max number of internally disjoint paths.

    For adjacent nodes the direct edge counts as one path; the remaining paths
    are computed on the graph with that edge removed, matching the standard
    definition (``kappa(u, v)`` is infinite only in complete graphs, which we
    avoid by returning ``n - 1`` as the natural ceiling).

    With ``cutoff`` the computation stops once ``cutoff`` paths are found, so
    the result is ``min(kappa(source, target), cutoff)``, except that an
    adjacent pair always counts its direct edge.  A negative cutoff is an
    error.
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("local connectivity is undefined for identical endpoints")
    if cutoff is not None and cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    if graph.has_edge(source, target):
        if cutoff is not None and cutoff <= 1:
            return 1
        # The copy re-adds edges in ``edges()`` order, so its adjacency order
        # (and with it the flow's traversal) can differ from the original's.
        reduced = graph.copy()
        reduced.remove_edge(source, target)
        inner_cutoff = None if cutoff is None else cutoff - 1
        return 1 + local_node_connectivity(reduced, source, target, cutoff=inner_cutoff)
    return vertex_split(graph, unit_edges=False).flow(source, target, cutoff=cutoff)


def node_connectivity(graph: Graph, cutoff: Optional[int] = None) -> int:
    """Return the global vertex connectivity ``kappa(G)``.

    Conventions: the empty and single-node graphs have connectivity 0; a
    disconnected graph has connectivity 0; the complete graph ``K_n`` has
    connectivity ``n - 1``.

    Parameters
    ----------
    cutoff:
        Optional early-exit: if every examined pair has local connectivity at
        least ``cutoff``, the returned value may be capped at ``cutoff``.  Use
        this when only ``kappa(G) >= k`` matters.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if not is_connected(graph):
        return 0
    if all(graph.degree(node) == n - 1 for node in graph.nodes()):
        return n - 1

    # Even's scheme: pick a minimum-degree node v; kappa(G) is the minimum of
    # kappa(v, w) over non-neighbours w of v and kappa(x, y) over non-adjacent
    # pairs x, y of neighbours of v.  We additionally never exceed min degree.
    best = graph.min_degree()
    if cutoff is not None:
        best = min(best, max(cutoff, 0) if cutoff > 0 else best)
    pivot = min(graph.nodes(), key=graph.degree)
    non_neighbors = [
        node
        for node in graph.nodes()
        if node != pivot and not graph.has_edge(pivot, node)
    ]
    for other in non_neighbors:
        best = min(best, local_node_connectivity(graph, pivot, other, cutoff=best))
        if best == 0:
            return 0
    neighbors = sorted(
        graph.neighbors(pivot), key=lambda node: (graph.degree(node), repr(node))
    )
    for x, y in itertools.combinations(neighbors, 2):
        if not graph.has_edge(x, y):
            best = min(best, local_node_connectivity(graph, x, y, cutoff=best))
            if best == 0:
                return 0
    return best


def is_k_connected(graph: Graph, k: int) -> bool:
    """Return ``True`` if ``kappa(G) >= k``.

    Slightly cheaper than computing the exact connectivity because local
    computations stop as soon as ``k`` disjoint paths are found.
    """
    if k <= 0:
        return True
    n = graph.number_of_nodes()
    if n <= k:
        # kappa(G) <= n - 1 always.
        return n >= 2 and node_connectivity(graph) >= k
    return node_connectivity(graph, cutoff=k) >= k


def local_edge_connectivity(
    graph: Graph, source: Node, target: Node, cutoff: Optional[int] = None
) -> int:
    """Return ``lambda(source, target)``: max number of edge-disjoint paths."""
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("local edge connectivity is undefined for identical endpoints")
    network = FlowNetwork()
    for u, v in graph.edges():
        network.add_arc(u, v, 1)
        network.add_arc(v, u, 1)
    network.add_node(source)
    network.add_node(target)
    return network.max_flow(source, target, cutoff=cutoff)


def edge_connectivity(graph: Graph) -> int:
    """Return the global edge connectivity ``lambda(G)``.

    Uses the standard "fixed node against every other node" reduction, which is
    exact for edge connectivity.
    """
    n = graph.number_of_nodes()
    if n <= 1:
        return 0
    if not is_connected(graph):
        return 0
    nodes = graph.nodes()
    pivot = nodes[0]
    best = graph.min_degree()
    for other in nodes[1:]:
        best = min(best, local_edge_connectivity(graph, pivot, other, cutoff=best))
        if best == 0:
            return 0
    return best


def connectivity_parameter(graph: Graph) -> int:
    """Return the paper's fault-tolerance parameter ``t`` where ``kappa(G) = t + 1``.

    Raises
    ------
    ValueError
        If the graph is disconnected (connectivity 0), for which no fault
        tolerance guarantee is possible.
    """
    kappa = node_connectivity(graph)
    if kappa == 0:
        raise ValueError("graph is disconnected; the model requires connectivity >= 1")
    return kappa - 1
