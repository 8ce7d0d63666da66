"""Maximum flow on unit-capacity networks (Dinic's algorithm).

Vertex connectivity and internally vertex-disjoint paths — the two graph
quantities on which every construction in the paper rests (the connectivity
``t + 1`` of the underlying graph, and the ``t + 1`` disjoint paths of
Lemma 2) — reduce to maximum flow on a *node-split* directed network with unit
capacities.  This module implements that reduction's engine: a small,
self-contained Dinic's algorithm, and the one builder of the node-split
network (:func:`vertex_split`).

Flow is the end-to-end bottleneck of routing construction, so the network is
stored on flat int arrays: node labels are interned to ``0..N-1`` as they are
added, arcs live in pairs (the residual twin of arc ``a`` is ``a ^ 1``) with
parallel ``head``/``capacity`` lists, and each node keeps the ids of its arcs
in first-insertion order.  Build-time capacities are kept beside the residual
ones, so :meth:`FlowNetwork.reset` turns one network into a reusable engine
for many ``(source, sink)`` queries; :func:`vertex_split` builds each graph's
split network once and memoises it on the graph.

Determinism: traversal order is the arcs' insertion order, never a hash
order, so the chosen minimum cut — and with it every separator, disjoint path
and routing fingerprint downstream — is independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.graphs.graph import Graph

Node = Hashable
Arc = Tuple[Node, Node]


class FlowNetwork:
    """A directed network with integer arc capacities for max-flow computation.

    Arcs are added with :meth:`add_arc`; adding an arc also creates the reverse
    residual arc with capacity 0 (unless the reverse arc was added explicitly,
    in which case capacities accumulate correctly).
    """

    def __init__(self) -> None:
        self._ids: Dict[Node, int] = {}
        self._labels: List[Node] = []
        # node id -> ids of the arcs leaving it, in first-insertion order.
        self._arcs: List[List[int]] = []
        self._head: List[int] = []
        self._capacity: List[int] = []
        # Build-time capacities, restored by reset().
        self._base: List[int] = []
        self._arc_ids: Dict[Tuple[int, int], int] = {}

    def _intern(self, node: Node) -> int:
        index = self._ids.get(node)
        if index is None:
            index = self._ids[node] = len(self._labels)
            self._labels.append(node)
            self._arcs.append([])
        return index

    def add_node(self, node: Node) -> None:
        """Ensure ``node`` exists in the network."""
        self._intern(node)

    def add_arc(self, u: Node, v: Node, capacity: int = 1) -> None:
        """Add capacity ``capacity`` on the arc ``u -> v``.

        Repeated calls accumulate capacity.  The reverse residual arc is
        created implicitly with capacity 0.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        tail = self._intern(u)
        head = self._intern(v)
        arc = self._arc_ids.get((tail, head))
        if arc is None:
            arc = len(self._head)
            self._head += (head, tail)
            self._capacity += (0, 0)
            self._base += (0, 0)
            self._arc_ids[(tail, head)] = arc
            self._arc_ids.setdefault((head, tail), arc ^ 1)
            self._arcs[tail].append(arc)
            if head != tail:
                self._arcs[head].append(arc ^ 1)
        self._capacity[arc] += capacity
        self._base[arc] += capacity

    def capacity(self, u: Node, v: Node) -> int:
        """Return the remaining capacity of the arc ``u -> v`` (0 if absent)."""
        arc = self._arc_ids.get((self._ids.get(u), self._ids.get(v)))
        return 0 if arc is None else self._capacity[arc]

    def nodes(self) -> List[Node]:
        """Return the nodes of the network."""
        return list(self._labels)

    def reset(self) -> None:
        """Restore the build-time capacities, undoing every earlier flow."""
        self._capacity[:] = self._base

    def flow_arcs(self) -> List[Arc]:
        """Return the arcs carrying positive flow, in arc insertion order.

        The flow on an arc is its build-time capacity minus its residual
        capacity, so this is meaningful after :meth:`max_flow`.
        """
        labels, head, capacity, base = self._labels, self._head, self._capacity, self._base
        result: List[Arc] = []
        for arc in range(0, len(head), 2):
            flow = base[arc] - capacity[arc]
            if flow:
                if flow < 0:
                    arc ^= 1
                result.append((labels[head[arc ^ 1]], labels[head[arc]]))
        return result

    # ------------------------------------------------------------------
    # Dinic's algorithm
    # ------------------------------------------------------------------
    def max_flow(self, source: Node, sink: Node, cutoff: Optional[int] = None) -> int:
        """Compute the maximum flow from ``source`` to ``sink``.

        Parameters
        ----------
        source, sink:
            Distinct nodes of the network.
        cutoff:
            Optional early-exit bound: computation stops as soon as the flow
            value reaches ``cutoff``.  Useful when the caller only needs to
            know whether the connectivity is at least some threshold.  A
            cutoff of 0 returns 0 without any work; a negative cutoff is an
            error.

        Notes
        -----
        The network is mutated (capacities become residual capacities); call
        :meth:`reset` before computing another flow on the same network.

        Each phase builds BFS levels over the arcs in insertion order, then
        augments along level-increasing paths found by an iterative DFS
        (node-splitting doubles path lengths, so recursion is avoided).  Each
        node's arc pointer persists through the phase and moves past every
        arc it yields, a dead end drops its node out of the level graph, and
        the cutoff is checked after every push.  The BFS stops once the sink
        has a level: every level below the sink's is complete by then, and a
        node at or past the sink's level other than the sink is a dead end
        whether or not it has a level, so the augmenting paths, and hence
        every residual capacity, are those of a full BFS.
        """
        if source == sink:
            raise ValueError("source and sink must be distinct")
        if cutoff is not None:
            if cutoff < 0:
                raise ValueError("cutoff must be non-negative")
            if cutoff == 0:
                return 0
        s = self._ids.get(source)
        t = self._ids.get(sink)
        if s is None or t is None:
            return 0
        arcs, head, capacity = self._arcs, self._head, self._capacity
        size = len(arcs)
        flow_value = 0
        while True:
            level = [-1] * size
            level[s] = 0
            queue = [s]
            for u in queue:
                next_level = level[u] + 1
                for arc in arcs[u]:
                    v = head[arc]
                    if level[v] < 0 and capacity[arc] > 0:
                        level[v] = next_level
                        queue.append(v)
                if level[t] >= 0:
                    break
            if level[t] < 0:
                return flow_value
            # Per-node arc iterators persist through the phase ("current arc").
            current = list(map(iter, arcs))
            path: List[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min([capacity[arc] for arc in path])
                    for arc in path:
                        capacity[arc] -= pushed
                        capacity[arc ^ 1] += pushed
                    flow_value += pushed
                    if cutoff is not None and flow_value >= cutoff:
                        return flow_value
                    path = []
                    u = s
                    continue
                wanted = level[u] + 1
                for arc in current[u]:
                    if capacity[arc] > 0 and level[head[arc]] == wanted:
                        path.append(arc)
                        u = head[arc]
                        break
                else:
                    # Dead end: u cannot reach the sink in this phase.
                    level[u] = -1
                    if not path:
                        break
                    u = head[path.pop() ^ 1]

    def min_cut_reachable(self, source: Node) -> Set[Node]:
        """Return the source side of a minimum cut *after* a max-flow run.

        Only meaningful once :meth:`max_flow` has been called: the residual
        capacities then describe the residual network, and the nodes reachable
        from the source in it form the source side of a minimum cut.
        """
        arcs, head, capacity = self._arcs, self._head, self._capacity
        start = self._ids[source]
        seen = [False] * len(arcs)
        seen[start] = True
        queue = [start]
        for u in queue:
            for arc in arcs[u]:
                v = head[arc]
                if not seen[v] and capacity[arc] > 0:
                    seen[v] = True
                    queue.append(v)
        labels = self._labels
        return {labels[u] for u in queue}


class VertexSplit(NamedTuple):
    """A graph's node-split flow network.

    Graph node ``nodes[i]`` becomes the network nodes ``2i`` (in) and
    ``2i + 1`` (out) joined by a capacity-1 node arc; each undirected edge
    ``{x, y}`` becomes the arcs ``x_out -> y_in`` and ``y_out -> x_in``.  Flow
    from ``source_out`` to ``target_in`` never traverses the endpoints' own
    node arcs (``source_out`` is the BFS root and the search stops at
    ``target_in``), so one network serves every ``(source, target)`` pair.
    """

    network: FlowNetwork
    nodes: List[Node]
    position: Dict[Node, int]

    def flow(self, source: Node, target: Node, cutoff: Optional[int] = None) -> int:
        """Reset the residuals and return the max flow from ``source`` to ``target``."""
        self.network.reset()
        return self.network.max_flow(
            2 * self.position[source] + 1, 2 * self.position[target], cutoff=cutoff
        )


def vertex_split(graph: Graph, unit_edges: bool) -> VertexSplit:
    """Return ``graph``'s node-split network, built once per graph.

    ``unit_edges`` selects the edge-arc capacity: 1 for disjoint-path
    extraction (the flow then decomposes directly into paths), ``n + 1`` for
    connectivity and separators (an edge arc is then never a min-cut arc, so
    the cut consists of node arcs).  The two variants leave different
    residual networks behind, hence different minimum cuts, so both exist.
    The network is memoised on the graph until its next mutation; queries
    reset its residuals, so queries on one graph must not interleave
    (across threads, say).
    """
    return graph._memo(
        ("vertex_split", unit_edges), lambda: _build_vertex_split(graph, unit_edges)
    )


def _build_vertex_split(graph: Graph, unit_edges: bool) -> VertexSplit:
    nodes = graph.nodes()
    position = {node: index for index, node in enumerate(nodes)}
    edge_capacity = 1 if unit_edges else len(nodes) + 1
    network = FlowNetwork()
    for index in range(len(nodes)):
        network.add_arc(2 * index, 2 * index + 1, 1)
    for u, v in graph.edges():
        i, j = position[u], position[v]
        network.add_arc(2 * i + 1, 2 * j, edge_capacity)
        network.add_arc(2 * j + 1, 2 * i, edge_capacity)
    return VertexSplit(network, nodes, position)


def unit_max_flow(
    arcs: Iterable[Arc], source: Node, sink: Node, cutoff: Optional[int] = None
) -> int:
    """Convenience wrapper: max flow of a fresh unit-capacity network.

    ``arcs`` is an iterable of directed ``(u, v)`` pairs each given capacity 1.
    """
    network = FlowNetwork()
    for u, v in arcs:
        network.add_arc(u, v, 1)
    network.add_node(source)
    network.add_node(sink)
    return network.max_flow(source, sink, cutoff=cutoff)
