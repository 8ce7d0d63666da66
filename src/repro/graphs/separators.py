"""Vertex separators (separating sets).

The kernel construction of Dolev et al. — the starting point of the paper —
routes every node to a minimal *separating set* ``M``: a set of ``t + 1`` or
more nodes whose removal disconnects the graph.  This module finds minimum
separators (globally and between specific pairs) and verifies candidate
separating sets.

Minimum separators come out of the same node-split max-flow computation used
for connectivity (the same memoised network, in fact): after a max-flow run
between a non-adjacent pair, the arcs crossing the minimum cut that are node
arcs (``x_in -> x_out``) identify the separator nodes.
"""

from __future__ import annotations

import itertools
from typing import Hashable, List, Optional, Set

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import VertexSplit, vertex_split
from repro.graphs.graph import Graph
from repro.graphs.traversal import connected_components, is_connected

Node = Hashable


def is_separating_set(graph: Graph, candidate: Set[Node]) -> bool:
    """Return ``True`` if removing ``candidate`` disconnects ``graph``.

    Matching the paper's definition, the removal must leave **at least two
    non-empty** connected components; removing everything (or leaving a single
    component, possibly empty) does not count.
    """
    for node in candidate:
        if not graph.has_node(node):
            raise NodeNotFoundError(node)
    remaining = graph.without_nodes(candidate)
    if remaining.number_of_nodes() == 0:
        return False
    return len(connected_components(remaining)) >= 2


def separates(graph: Graph, candidate: Set[Node], x: Node, y: Node) -> bool:
    """Return ``True`` if ``candidate`` separates ``x`` from ``y``.

    ``x`` and ``y`` must not belong to the candidate set themselves.
    """
    if x in candidate or y in candidate:
        raise ValueError("endpoints may not belong to the separating set")
    remaining = graph.without_nodes(candidate)
    if not remaining.has_node(x) or not remaining.has_node(y):
        raise NodeNotFoundError(x if not remaining.has_node(x) else y)
    from repro.graphs.traversal import bfs_distances

    return y not in bfs_distances(remaining, x)


def minimum_pair_separator(graph: Graph, source: Node, target: Node) -> Set[Node]:
    """Return a minimum vertex set separating non-adjacent ``source`` and ``target``.

    Raises
    ------
    ValueError
        If the two nodes are adjacent (no vertex set can separate them).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("source and target must be distinct")
    if graph.has_edge(source, target):
        raise ValueError("adjacent nodes cannot be separated by removing vertices")
    split = vertex_split(graph, unit_edges=False)
    split.flow(source, target)
    return _cut_separator(split, source)


def _cut_separator(split: VertexSplit, source: Node) -> Set[Node]:
    """Return the nodes whose node arc crosses the minimum cut of the last flow."""
    reachable = split.network.min_cut_reachable(2 * split.position[source] + 1)
    return {
        node
        for index, node in enumerate(split.nodes)
        if 2 * index in reachable and 2 * index + 1 not in reachable
    }


def minimum_separator(graph: Graph) -> Set[Node]:
    """Return a minimum separating set of a connected, non-complete graph.

    The returned set has exactly ``kappa(G)`` nodes.  For the paper's model a
    graph of connectivity ``t + 1`` therefore yields a minimal separating set
    ``M`` of size ``t + 1``, as required by the kernel construction.

    Raises
    ------
    ValueError
        If the graph is complete (no separating set exists), disconnected or
        has fewer than three nodes.
    """
    n = graph.number_of_nodes()
    if n < 3:
        raise ValueError("graphs with fewer than 3 nodes have no separating set")
    if not is_connected(graph):
        raise ValueError("graph is disconnected; separating sets are not meaningful")
    if all(graph.degree(node) == n - 1 for node in graph.nodes()):
        raise ValueError("complete graphs have no separating set")

    best: Optional[Set[Node]] = None
    pivot = min(graph.nodes(), key=graph.degree)
    candidates_pairs = []
    for other in graph.nodes():
        if other != pivot and not graph.has_edge(pivot, other):
            candidates_pairs.append((pivot, other))
    neighbor_order = sorted(
        graph.neighbors(pivot), key=lambda node: (graph.degree(node), repr(node))
    )
    for x, y in itertools.combinations(neighbor_order, 2):
        if not graph.has_edge(x, y):
            candidates_pairs.append((x, y))

    # A pair whose flow reaches the incumbent's size cannot beat it, so its
    # flow stops there; a flow that stops short ran exactly as a full one.
    split = vertex_split(graph, unit_edges=False)
    for x, y in candidates_pairs:
        cutoff = None if best is None else len(best)
        flow = split.flow(x, y, cutoff=cutoff)
        if cutoff is not None and flow >= cutoff:
            continue
        best = _cut_separator(split, x)
        if len(best) == 1:
            break
    if best is None:
        # Every non-adjacent pair search failed, which for a non-complete
        # connected graph cannot happen; guard for safety.
        raise ValueError("failed to locate a separating set")
    return best


def minimal_separating_set(graph: Graph, size: Optional[int] = None) -> Set[Node]:
    """Return a separating set of exactly ``size`` nodes (default ``kappa(G)``).

    The kernel construction asks for a *minimal* separating set of size
    ``t + 1``; if a larger ``size`` is requested the minimum separator is
    padded with additional nodes chosen so that the set still separates the
    graph (nodes outside the two components being merged cannot "unseparate"
    it, so any extra non-component-spanning nodes work — we simply add nodes
    not in the separator, preferring high-degree ones, and re-verify).
    """
    base = minimum_separator(graph)
    if size is None or size == len(base):
        return base
    if size < len(base):
        raise ValueError(
            f"no separating set of size {size} exists: minimum separator has "
            f"{len(base)} nodes"
        )
    remaining_components = connected_components(graph.without_nodes(base))
    # Keep at least one node out of two distinct components so the enlarged
    # set still separates the graph (repr-minimal choice for determinism).
    protected = {min(component, key=repr) for component in remaining_components[:2]}
    extras = [
        node
        for node in sorted(
            graph.nodes(), key=lambda node: (-graph.degree(node), repr(node))
        )
        if node not in base and node not in protected
    ]
    enlarged = set(base)
    for node in extras:
        if len(enlarged) >= size:
            break
        enlarged.add(node)
    if len(enlarged) < size or not is_separating_set(graph, enlarged):
        raise ValueError(f"could not build a separating set of size {size}")
    return enlarged
