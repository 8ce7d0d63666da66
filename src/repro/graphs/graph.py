"""Undirected simple graph implementation.

The paper models communication networks as undirected graphs ``G = (V, E)`` of
node-connectivity ``t + 1``.  This module provides the :class:`Graph` class
used throughout the library.  It is a deliberately small, dependency-free
adjacency-set implementation: nodes are arbitrary hashable objects, edges are
unordered pairs of distinct nodes, and neither self-loops nor parallel edges
are representable.

The class intentionally mirrors a small subset of the ``networkx.Graph`` API
(``add_node``, ``add_edge``, ``neighbors``, ``degree`` ...) so that the test
suite can cross-validate behaviour against networkx, but the implementation is
completely independent.

Determinism
-----------
Adjacency is stored in **insertion-ordered** dictionaries (not hash-ordered
sets), so every structural iteration — ``nodes()``, ``edges()``,
``iter_neighbors()``, subgraphs — depends only on the order in which the
graph was built, never on ``PYTHONHASHSEED``.  Every construction downstream
(max-flow, disjoint paths, routings) inherits bit-for-bit reproducibility
from this property.

Derived structures
------------------
Structures derived from the graph alone (the node-split flow networks of
:mod:`repro.graphs.flow`) are memoised privately on the graph and dropped by
every mutator.  The memo is invisible to ``copy()``, pickling and ``==``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]


class Graph:
    """An undirected simple graph backed by adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to populate the graph.
        Nodes appearing in the edge list are added implicitly.
    nodes:
        Optional iterable of nodes to add (useful for isolated nodes).
    name:
        Optional human-readable name, carried through copies and reported by
        ``repr`` — handy when sweeping graph families in experiments.

    Examples
    --------
    >>> g = Graph(edges=[(0, 1), (1, 2)], name="path-3")
    >>> sorted(g.nodes())
    [0, 1, 2]
    >>> g.has_edge(2, 1)
    True
    >>> g.degree(1)
    2
    """

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        nodes: Optional[Iterable[Node]] = None,
        name: str = "",
    ) -> None:
        # node -> {neighbor: None}; inner dicts act as insertion-ordered sets
        # so iteration order never depends on PYTHONHASHSEED.
        self._adj: Dict[Node, Dict[Node, None]] = {}
        self.name = name
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # Node operations
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph.  Adding an existing node is a no-op."""
        if node not in self._adj:
            self._adj[node] = {}
            self.__dict__.pop("_derived", None)

    def add_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        for neighbor in self._adj[node]:
            self._adj[neighbor].pop(node, None)
        del self._adj[node]
        self.__dict__.pop("_derived", None)

    def remove_nodes_from(self, nodes: Iterable[Node]) -> None:
        """Remove every node in ``nodes`` (each must be present)."""
        for node in list(nodes):
            self.remove_node(node)

    def has_node(self, node: Node) -> bool:
        """Return ``True`` if ``node`` is in the graph."""
        return node in self._adj

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> List[Node]:
        """Return a list of all nodes (insertion order)."""
        return list(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def number_of_nodes(self) -> int:
        """Return the number of nodes, ``|V|``."""
        return len(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node) -> None:
        """Add the undirected edge ``{u, v}``.

        Endpoints are added to the graph if missing.  Self-loops are rejected
        because the model only considers simple graphs.
        """
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = None
        self._adj[v][u] = None
        self.__dict__.pop("_derived", None)

    def add_edges_from(self, edges: Iterable[Edge]) -> None:
        """Add every edge in ``edges``."""
        for u, v in edges:
            self.add_edge(u, v)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``{u, v}``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        self._adj[u].pop(v, None)
        self._adj[v].pop(u, None)
        self.__dict__.pop("_derived", None)

    def remove_edges_from(self, edges: Iterable[Edge]) -> None:
        """Remove every edge in ``edges`` (each must be present)."""
        for u, v in list(edges):
            self.remove_edge(u, v)

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return ``True`` if the edge ``{u, v}`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def edges(self) -> List[Edge]:
        """Return each undirected edge exactly once as an ``(u, v)`` tuple."""
        seen: Set[frozenset] = set()
        result: List[Edge] = []
        for u in self._adj:
            for v in self._adj[u]:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    result.append((u, v))
        return result

    def number_of_edges(self) -> int:
        """Return the number of edges, ``|E|``."""
        return sum(len(neighbors) for neighbors in self._adj.values()) // 2

    # ------------------------------------------------------------------
    # Neighbourhood / degree queries
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> Set[Node]:
        """Return the neighbour set ``Gamma(node)`` as a fresh :class:`set`.

        This is the paper's ``Γ(u, G)``.

        Raises
        ------
        NodeNotFoundError
            If ``node`` is not in the graph.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return set(self._adj[node])

    def iter_neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over ``Gamma(node)`` in insertion order (deterministic).

        Unlike :meth:`neighbors` this does not copy into a hash-ordered set;
        traversals that must be reproducible across interpreter runs (BFS
        trees, shortest paths, flow networks) iterate through here.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return iter(self._adj[node])

    def degree(self, node: Node) -> int:
        """Return the degree of ``node``."""
        if node not in self._adj:
            raise NodeNotFoundError(node)
        return len(self._adj[node])

    def degrees(self) -> Dict[Node, int]:
        """Return a mapping from every node to its degree."""
        return {node: len(neighbors) for node, neighbors in self._adj.items()}

    def max_degree(self) -> int:
        """Return the maximum degree; 0 for the empty graph."""
        if not self._adj:
            return 0
        return max(len(neighbors) for neighbors in self._adj.values())

    def min_degree(self) -> int:
        """Return the minimum degree; 0 for the empty graph."""
        if not self._adj:
            return 0
        return min(len(neighbors) for neighbors in self._adj.values())

    def average_degree(self) -> float:
        """Return the average degree ``2|E| / |V|``; 0.0 for the empty graph."""
        if not self._adj:
            return 0.0
        return 2.0 * self.number_of_edges() / self.number_of_nodes()

    def closed_neighborhood(self, node: Node) -> Set[Node]:
        """Return ``{node} | Gamma(node)``."""
        return {node} | self.neighbors(node)

    def neighborhood_at_distance(self, node: Node, radius: int) -> Set[Node]:
        """Return all nodes within ``radius`` hops of ``node`` (excluding it).

        A ``radius`` of 1 gives the ordinary neighbour set; a ``radius`` of 2
        additionally includes neighbours of neighbours, and so on.  Used by
        the greedy neighbourhood-set construction of Lemma 15.
        """
        if node not in self._adj:
            raise NodeNotFoundError(node)
        if radius < 0:
            raise ValueError("radius must be non-negative")
        visited: Set[Node] = {node}
        frontier: Set[Node] = {node}
        for _ in range(radius):
            next_frontier: Set[Node] = set()
            for u in frontier:
                next_frontier.update(self._adj[u].keys() - visited)
            visited.update(next_frontier)
            frontier = next_frontier
            if not frontier:
                break
        visited.discard(node)
        return visited

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return a deep structural copy of the graph."""
        clone = Graph(name=self.name)
        for node in self._adj:
            clone.add_node(node)
        for u, v in self.edges():
            clone.add_edge(u, v)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Return the subgraph induced by ``nodes``.

        Nodes not present in the graph are ignored, matching the common
        "restrict to the surviving nodes" usage.
        """
        keep = {node for node in nodes if node in self._adj}
        sub = Graph(name=self.name)
        # Iterate the parent's insertion order (not the ``keep`` set) so the
        # subgraph's node/edge order is independent of PYTHONHASHSEED.
        for node in self._adj:
            if node in keep:
                sub.add_node(node)
        for node in self._adj:
            if node not in keep:
                continue
            for neighbor in self._adj[node]:
                if neighbor in keep:
                    sub.add_edge(node, neighbor)
        return sub

    def without_nodes(self, nodes: Iterable[Node]) -> "Graph":
        """Return a copy of the graph with ``nodes`` (and incident edges) removed.

        This is the "remove the faulty nodes" operation used when building the
        surviving route graph and when checking separating sets.
        """
        removed = set(nodes)
        return self.subgraph(node for node in self._adj if node not in removed)

    # ------------------------------------------------------------------
    # Derived-structure memo
    # ------------------------------------------------------------------
    def _memo(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """Return ``build()``, memoised under ``key`` until the graph mutates."""
        derived = self.__dict__.setdefault("_derived", {})
        value = derived.get(key)
        if value is None:
            value = derived[key] = build()
        return value

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__
        if "_derived" in state:
            state = {name: value for name, value in state.items() if name != "_derived"}
        return state

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if set(self._adj) != set(other._adj):
            return False
        return all(self._adj[node] == other._adj[node] for node in self._adj)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"<Graph{label} |V|={self.number_of_nodes()} "
            f"|E|={self.number_of_edges()}>"
        )

    def adjacency(self) -> Dict[Node, Set[Node]]:
        """Return a copy of the adjacency structure (node -> neighbour set)."""
        return {node: set(neighbors) for node, neighbors in self._adj.items()}
