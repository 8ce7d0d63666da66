"""Construction of internally vertex-disjoint paths.

Lemma 2 of the paper builds a *tree routing* from a node ``x`` to a separating
set ``M`` by taking ``t + 1`` node-disjoint paths from ``x`` to some node
``y`` separated from ``x`` by ``M`` and truncating each at its first
``M``-node.  This module supplies the underlying primitive: a maximum set of
internally vertex-disjoint ``x``–``y`` paths, extracted from a max-flow on the
node-split network.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.exceptions import NodeNotFoundError
from repro.graphs.flow import VertexSplit, vertex_split
from repro.graphs.graph import Graph

Node = Hashable


def _extract_flow_paths(split: VertexSplit, source: Node, target: Node) -> List[List[Node]]:
    """Decompose the flow just computed on ``split`` into source-target paths.

    Every arc of the unit-edge split network carries at most one unit, so the
    arcs with flow decompose directly into internally disjoint paths.  Per
    network node they are listed in arc insertion order (node/edge order of
    the graph) and the walk consumes them with ``pop()``, so the same flow
    always decomposes into the same paths.
    """
    used: Dict[int, List[int]] = {}
    for tail, head in split.network.flow_arcs():
        used.setdefault(tail, []).append(head)
    start = 2 * split.position[source] + 1
    sink = 2 * split.position[target]
    nodes = split.nodes
    paths: List[List[Node]] = []
    while used.get(start):
        # Walk one unit of flow from the source to the target, consuming arcs.
        walk = [start]
        while walk[-1] != sink:
            candidates = used.get(walk[-1])
            if not candidates:
                # Should not happen with a valid integral flow; guard anyway.
                return paths
            walk.append(candidates.pop())
        # Each in-node (even id) after the source is the next graph node.
        paths.append([source] + [nodes[split_id // 2] for split_id in walk[1::2]])
    return paths


def vertex_disjoint_paths(
    graph: Graph,
    source: Node,
    target: Node,
    k: Optional[int] = None,
) -> List[List[Node]]:
    """Return a maximum set of internally vertex-disjoint ``source``–``target`` paths.

    Parameters
    ----------
    graph:
        The underlying undirected graph.
    source, target:
        Distinct nodes of ``graph``.
    k:
        Optional cap on the number of paths returned (and on the amount of
        flow computed).  When ``k`` is ``None`` the full maximum is returned.

    Returns
    -------
    list of paths
        Each path is a node list from ``source`` to ``target``.  If the two
        nodes are adjacent, one of the returned paths is the direct edge.
        Paths share no node other than the two endpoints.

    Notes
    -----
    By Menger's theorem the number of returned paths equals the local vertex
    connectivity ``kappa(source, target)`` (or ``k`` when capped).
    """
    if not graph.has_node(source):
        raise NodeNotFoundError(source)
    if not graph.has_node(target):
        raise NodeNotFoundError(target)
    if source == target:
        raise ValueError("source and target must be distinct")

    paths: List[List[Node]] = []
    working = graph
    if graph.has_edge(source, target):
        paths.append([source, target])
        working = graph.copy()
        working.remove_edge(source, target)
        if k is not None and k <= 1:
            return paths[:k]

    remaining = None if k is None else k - len(paths)
    # The adjacent case flows on the copy: ``copy()`` re-adds edges in
    # ``edges()`` order, so its adjacency order may differ from ``graph``'s.
    split = vertex_split(working, unit_edges=True)
    split.flow(source, target, cutoff=remaining)
    flow_paths = _extract_flow_paths(split, source, target)
    if remaining is not None:
        flow_paths = flow_paths[:remaining]
    paths.extend(flow_paths)
    return paths


def are_internally_disjoint(paths: Sequence[Sequence[Node]]) -> bool:
    """Return ``True`` if the given paths share no internal node.

    Endpoints (the first and last node of each path) are allowed to coincide;
    every other node must appear in at most one path.
    """
    seen: Set[Node] = set()
    for path in paths:
        for node in path[1:-1]:
            if node in seen:
                return False
            seen.add(node)
    return True


def truncate_paths_at_set(
    paths: Sequence[Sequence[Node]], targets: Set[Node]
) -> List[List[Node]]:
    """Truncate each path at its first node belonging to ``targets``.

    This is the path surgery of Lemma 2: given node-disjoint paths from ``x``
    towards some node beyond the separating set ``M``, keep only the prefix up
    to (and including) the first ``M``-node encountered.  Paths that never
    meet ``targets`` are dropped.
    """
    truncated: List[List[Node]] = []
    for path in paths:
        for index, node in enumerate(path):
            if index > 0 and node in targets:
                truncated.append(list(path[: index + 1]))
                break
    return truncated
