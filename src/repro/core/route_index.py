"""Precomputed route index with a bitset surviving-diameter kernel.

Evaluating a fault set the naive way (:func:`repro.core.surviving
.surviving_route_graph`) re-walks every route of the routing — ``O(n^2 *
route-length)`` work per fault set — even though a typical fault set touches
only a small fraction of the routes.  :class:`RouteIndex` amortises that work
across a whole campaign: it is built **once** per ``(graph, routing)`` pair
and evaluates every fault set incrementally.

Bitset representation
---------------------
At build time the nodes are relabelled to ``0 .. n-1`` (in ``graph.nodes()``
order) and the fault-free *base route graph* is stored as one Python big-int
**adjacency row per node**: bit ``t`` of ``row[s]`` is set exactly when the
routing carries a surviving arc ``s -> t`` of the empty fault set.  Sets of
nodes (fault sets, BFS frontiers, reachability) are likewise single integers
with one bit per node.  The payoff is that the whole evaluation pipeline runs
on machine words inside CPython's long-integer kernels:

* masking out faulty nodes is one ``row & ~fault_mask`` per row instead of a
  per-node set difference;
* a BFS level advance is one ``next |= row[u]`` per frontier node and a
  single ``next & ~visited`` — no hashing, no per-neighbour Python loop;
* "every node reached" is an integer equality against the alive mask.

Diameter kernel
---------------
One kernel, :func:`_rows_diameter_witness`, evaluates every fault set on
the bitset backend: ``surviving_diameter``, cursors (the greedy adversary,
the serving ``diameter``/``fail`` ops) and ``check_tolerance`` all run
through it.  It first runs one frontier BFS from the lowest alive node,
which finds the usual outcome of a heavy fault set — a cut, or an
eccentricity above the cap — in ``O(n)`` word operations and returns the
same witnesses a per-source search would.  Then all sources advance
together (the multi-source BFS idea of Then et al., "The More the Merrier",
VLDB 2014): ``reach[u]`` holds the nodes within distance ``level`` of ``u``,
a level advance ORs the previous level's reach of ``u``'s successors into
it, and nodes whose reach is complete drop out of the work list.  The
successor lists of the fault-free rows are extracted once per index; a
fault set reuses them as-is for the rows it leaves intact and filters them
for the rest.

Alongside the rows the index keeps an inverted index ``node id -> {(s, t)
pairs whose route(s) pass through it}`` so a fault set only re-checks the
pairs it can actually affect, and — for multiroutings — one bitmask per
parallel route so "does some route survive" is a ``route_mask & fault_mask``
test per route.

Decision API
------------
:meth:`RouteIndex.surviving_diameter_at_most` answers the question callers
like ``check_tolerance`` actually ask — "is the surviving diameter at most
``bound``?" — without always paying for the exact value: the kernel stops
at the first BFS level that proves some eccentricity exceeds the bound.
:meth:`RouteIndex.surviving_diameter` accepts the same optimisation through
its ``cap`` parameter (it returns ``inf`` as soon as the cap is exceeded) and
a ``kernel`` parameter selecting between the bitset and numpy kernels.

Evaluation cursors
------------------
:meth:`RouteIndex.cursor` returns an :class:`EvalCursor` — a snapshot of the
masked adjacency rows for one fault set ``F``.  ``cursor.with_added(v)``
derives the cursor for ``F | {v}`` by touching only the rows that index ``v``
(its surviving predecessors, via a precomputed predecessor mask, plus the
pairs routed through ``v``) instead of re-masking all ``n`` rows.  Prefix
sharing callers — the greedy adversary evaluates ``F | {v}`` for hundreds of
``v`` per step — therefore pay ``O(degree + routes-through-v)`` per candidate
instead of ``O(n^2)``.  Cursors also memoise their diameter and the witness
of a disconnection: once a cursor is known to be disconnected by a missing
target other than ``v``, ``with_added(v)`` propagates the infinite diameter
without running a single BFS.

The index is read-only with respect to the graph and routing: mutating either
after building the index invalidates it (build a fresh one instead).  It is
picklable (plain ints, tuples and dicts), so a pre-built index (or its
:meth:`RouteIndex.slim` copy) can be shipped to
:class:`~repro.faults.engine.ShardExecutor` worker processes instead of being
rebuilt per worker.
"""

from __future__ import annotations

import math
import os
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set, Tuple, Union

from repro.core.routing import MultiRouting, Routing
from repro.exceptions import FaultModelError
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph
from repro.graphs.traversal import INFINITY

Node = Hashable
Pair = Tuple[Node, Node]
IdPair = Tuple[int, int]
AnyRouting = Union[Routing, MultiRouting]

_NO_PAIRS: FrozenSet[IdPair] = frozenset()

#: Evaluation backends: ``"bitset"`` is the pure-Python big-int kernel,
#: ``"numpy"`` the packed-uint64 batched kernel (requires numpy; silently
#: falls back to bitset where it is absent), ``"auto"`` picks numpy when it
#: is importable.  Select per index via the ``backend`` constructor argument
#: or globally via the ``REPRO_EVAL_BACKEND`` environment variable (the
#: constructor argument wins; ``REPRO_NO_NUMPY=1`` force-disables numpy
#: everywhere).  Every backend returns identical values.
EVAL_BACKEND_BITSET = "bitset"
EVAL_BACKEND_NUMPY = "numpy"
EVAL_BACKEND_AUTO = "auto"
_EVAL_BACKENDS = (EVAL_BACKEND_BITSET, EVAL_BACKEND_NUMPY, EVAL_BACKEND_AUTO)


def _resolve_eval_backend(value: Optional[str]) -> str:
    """Resolve the evaluation backend: explicit arg > env override > default.

    ``"auto"`` resolves to ``"numpy"`` when numpy is importable (and not
    disabled via ``REPRO_NO_NUMPY``), else ``"bitset"``.  An explicit
    ``"numpy"`` is kept as-is even where numpy is absent: evaluation falls
    back to the bitset kernel per process (see
    :attr:`RouteIndex.eval_backend`), so an index built and shipped with the
    numpy backend still evaluates correctly on a worker without numpy.
    """
    if value is None:
        value = os.environ.get("REPRO_EVAL_BACKEND") or EVAL_BACKEND_BITSET
    value = value.strip().lower()
    if value not in _EVAL_BACKENDS:
        raise ValueError(
            f"unknown eval backend {value!r}; expected one of {_EVAL_BACKENDS}"
        )
    if value == EVAL_BACKEND_AUTO:
        from repro.core.np_kernel import numpy_available

        return EVAL_BACKEND_NUMPY if numpy_available() else EVAL_BACKEND_BITSET
    return value


def _mask_ids(mask: int) -> List[int]:
    """The set bits of ``mask`` as an ascending id list."""
    ids: List[int] = []
    while mask:
        bit = mask & -mask
        ids.append(bit.bit_length() - 1)
        mask ^= bit
    return ids


class RouteIndex:
    """Inverted route index over a fixed ``(graph, routing)`` pair.

    Parameters
    ----------
    graph:
        The underlying network ``G``.
    routing:
        A :class:`Routing` or :class:`MultiRouting` over ``graph``.

    Notes
    -----
    Building the index costs one pass over every route (the same work as a
    single naive fault-set evaluation); every subsequent evaluation through
    the index is incremental.  See the module docstring for the bitset
    representation and the cursor API.
    """

    def __init__(
        self,
        graph: Graph,
        routing: AnyRouting,
        backend: Optional[str] = None,
    ) -> None:
        self.graph = graph
        self.routing = routing
        # Evaluation backend ("bitset" or "numpy"), resolved exactly once,
        # here in the constructing process.
        self._backend = _resolve_eval_backend(backend)
        # Lazily built numpy kernel; never pickled (workers rebuild it from
        # the shipped bitset rows on first use).
        self._np_kernel = None
        self._nodes: Tuple[Node, ...] = tuple(graph.nodes())
        self._node_set: FrozenSet[Node] = frozenset(self._nodes)
        self._id_of: Dict[Node, int] = {
            node: position for position, node in enumerate(self._nodes)
        }
        n = len(self._nodes)
        self._n = n
        self._full_mask = (1 << n) - 1
        # Bit t of _base_rows[s] <=> arc s -> t in the fault-free route graph;
        # _base_preds is the transpose (bit s of _base_preds[t] <=> s -> t).
        self._base_rows: List[int] = [0] * n
        self._base_preds: List[int] = [0] * n
        # Single routings: per-node *kill masks* — ``_kill_rows[v][s]`` is the
        # bitmask of targets t whose route ``rho(s, t)`` passes through v, so
        # failing v is ``rows[s] &= ~mask`` per indexed source (no per-pair
        # loop; endpoint arcs are covered because v is on its own routes).
        self._kill_rows: List[Dict[int, int]] = []
        # Multiroutings: node id -> ordered (source id, target id) pairs
        # routed through it, plus one node bitmask per parallel route (an arc
        # survives while any of its route masks avoids the fault mask).
        self._pairs_through: Dict[int, Set[IdPair]] = {}
        self._pair_routes: Dict[IdPair, Tuple[int, ...]] = {}
        self._multi = isinstance(routing, MultiRouting)

        id_of = self._id_of
        if self._multi:
            for source, target in routing.pairs():
                sid, tid = id_of[source], id_of[target]
                masks = []
                through: Set[int] = set()
                for path in routing.get_routes(source, target):
                    mask = 0
                    for node in path:
                        mask |= 1 << id_of[node]
                    masks.append(mask)
                    through.update(id_of[node] for node in path)
                if not masks:
                    continue
                pair = (sid, tid)
                self._pair_routes[pair] = tuple(masks)
                self._base_rows[sid] |= 1 << tid
                self._base_preds[tid] |= 1 << sid
                for nid in through:
                    self._pairs_through.setdefault(nid, set()).add(pair)
        else:
            self._kill_rows = [{} for _ in range(n)]
            kill_rows = self._kill_rows
            for (source, target), path in routing.items():
                sid, tid = id_of[source], id_of[target]
                target_bit = 1 << tid
                self._base_rows[sid] |= target_bit
                self._base_preds[tid] |= 1 << sid
                for node in path:
                    kill = kill_rows[id_of[node]]
                    kill[sid] = kill.get(sid, 0) | target_bit
        # Successor ids of every base row, which the diameter kernel shares
        # (or filters) instead of re-extracting bits per fault set.
        self._base_succ: List[List[int]] = [_mask_ids(row) for row in self._base_rows]

    # ------------------------------------------------------------------
    # Pickling (worker shipping)
    # ------------------------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        # The numpy kernel holds process-local scratch tensors and is cheap
        # to rebuild from the bitset rows; receivers rebuild it lazily.
        state["_np_kernel"] = None
        return state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pairs_through(self, node: Node) -> FrozenSet[Pair]:
        """Return the ordered pairs whose route(s) traverse ``node``."""
        nid = self._id_of.get(node)
        if nid is None:
            return frozenset()
        nodes = self._nodes
        if self._multi:
            return frozenset(
                (nodes[sid], nodes[tid])
                for sid, tid in self._pairs_through.get(nid, _NO_PAIRS)
            )
        pairs = set()
        for sid, mask in self._kill_rows[nid].items():
            source = nodes[sid]
            while mask:
                bit = mask & -mask
                pairs.add((source, nodes[bit.bit_length() - 1]))
                mask ^= bit
        return frozenset(pairs)

    def base_route_graph(self) -> DiGraph:
        """Return a copy of the cached fault-free route graph."""
        return self._build_digraph(self._base_rows, self._full_mask)

    def matches(self, graph: Graph, routing: AnyRouting) -> bool:
        """Return ``True`` when the index was built for exactly these objects."""
        return graph is self.graph and routing is self.routing

    @property
    def backend(self) -> str:
        """The backend resolved at construction (``"bitset"`` or ``"numpy"``)."""
        return self._backend

    @property
    def eval_backend(self) -> str:
        """The backend evaluations actually use **in this process**.

        Equals :attr:`backend` except when the numpy backend was selected
        but numpy is unavailable here (not installed, or disabled via
        ``REPRO_NO_NUMPY``) — then evaluations silently fall back to the
        pure-Python bitset kernel.  Values are identical either way.
        """
        if self._backend == EVAL_BACKEND_NUMPY:
            from repro.core.np_kernel import numpy_available

            if numpy_available():
                return EVAL_BACKEND_NUMPY
        return EVAL_BACKEND_BITSET

    def _ensure_np_kernel(self):
        """Build (once per process) and return the numpy kernel, or ``None``."""
        kernel = self._np_kernel
        if kernel is None:
            from repro.core.np_kernel import NumpyKernel, numpy_available

            if not numpy_available():
                return None
            kernel = self._np_kernel = NumpyKernel(self)
        return kernel

    @property
    def node_pool(self) -> Tuple[Node, ...]:
        """The graph's nodes in canonical (repr-sorted) order.

        This is the pool random and exhaustive fault batteries draw from;
        exposing it on the index lets campaign workers regenerate their
        shards without holding the graph object (see :meth:`slim`).
        """
        pool = getattr(self, "_node_pool", None)
        if pool is None:
            pool = self._node_pool = tuple(sorted(self._nodes, key=repr))
        return pool

    # ------------------------------------------------------------------
    # Artifact export (serving layer)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, object]:
        """Return the index's evaluation state as plain Python structures.

        The export hook behind :mod:`repro.serving.artifact`: everything the
        evaluation surface needs — node labels in id order, the base
        adjacency/predecessor rows, the per-node kill masks (or the
        multirouting pair tables) and the resolved backend — as ints,
        tuples, lists and dicts only, so a compiler can lay the state out in
        any on-disk format without touching the graph or routing objects.
        :meth:`from_state` reconstructs an evaluation-equivalent index from
        the returned mapping.
        """
        state: Dict[str, object] = {
            "nodes": tuple(self._nodes),
            "multi": self._multi,
            "base_rows": list(self._base_rows),
            "base_preds": list(self._base_preds),
            "backend": self._backend,
        }
        if self._multi:
            # Insertion order of ``_pair_routes`` is part of the identity
            # (parallel routes are tried in stored order); keep it.
            state["pair_routes"] = {
                pair: tuple(masks) for pair, masks in self._pair_routes.items()
            }
        else:
            state["kill_rows"] = [dict(kill) for kill in self._kill_rows]
        return state

    @classmethod
    def from_state(
        cls, state: Dict[str, object], backend: Optional[str] = None
    ) -> "RouteIndex":
        """Rebuild an evaluation-only index from :meth:`export_state` output.

        The result is equivalent to :meth:`slim`'s graph-free form: the whole
        evaluation surface works (diameters, cursors, batches, every
        backend), while :meth:`matches` is always ``False``.  ``backend``
        overrides the exported backend (resolved in *this* process, e.g. to
        honour a server's ``--eval-backend`` flag against an artifact
        compiled elsewhere).
        """
        index = object.__new__(cls)
        index.graph = None
        index.routing = None
        index._backend = (
            _resolve_eval_backend(backend)
            if backend is not None
            else str(state["backend"])
        )
        index._np_kernel = None
        nodes = tuple(state["nodes"])
        index._nodes = nodes
        index._node_set = frozenset(nodes)
        index._id_of = {node: position for position, node in enumerate(nodes)}
        n = len(nodes)
        index._n = n
        index._full_mask = (1 << n) - 1
        index._base_rows = [int(row) for row in state["base_rows"]]
        index._base_preds = [int(row) for row in state["base_preds"]]
        index._base_succ = [_mask_ids(row) for row in index._base_rows]
        index._multi = bool(state["multi"])
        if index._multi:
            index._kill_rows = []
            index._pair_routes = {
                (int(sid), int(tid)): tuple(int(mask) for mask in masks)
                for (sid, tid), masks in state["pair_routes"].items()
            }
            pairs_through: Dict[int, Set[IdPair]] = {}
            for pair, masks in index._pair_routes.items():
                through = 0
                for mask in masks:
                    through |= mask
                for nid in _mask_ids(through):
                    pairs_through.setdefault(nid, set()).add(pair)
            index._pairs_through = pairs_through
        else:
            index._kill_rows = [
                {int(sid): int(mask) for sid, mask in kill.items()}
                for kill in state["kill_rows"]
            ]
            index._pairs_through = {}
            index._pair_routes = {}
        return index

    def slim(self) -> "RouteIndex":
        """Return an evaluation-only copy without the graph and routing.

        The copy shares every bitset structure with ``self`` but replaces the
        ``graph`` / ``routing`` references with ``None``, which shrinks the
        pickled payload shipped to campaign workers to the adjacency rows,
        kill masks and node labels.  The slim index supports the whole
        evaluation surface (``surviving_diameter`` / ``..._at_most``,
        cursors, ``surviving_route_graph``, ``node_pool``); only
        :meth:`matches` (always ``False``) is unavailable.
        """
        clone = object.__new__(RouteIndex)
        clone.__dict__.update(self.__dict__)
        clone.graph = None
        clone.routing = None
        clone._np_kernel = None  # rebuilt lazily in the receiving process
        clone._node_pool = self.node_pool  # materialise before shipping
        return clone

    # ------------------------------------------------------------------
    # Fault-set plumbing
    # ------------------------------------------------------------------
    def _check_faults(self, faults: Iterable[Node]) -> FrozenSet[Node]:
        fault_set = frozenset(faults)
        if not fault_set <= self._node_set:
            missing = next(iter(fault_set - self._node_set))
            raise FaultModelError(
                f"faulty node {missing!r} is not a node of the graph"
            )
        return fault_set

    def _fault_mask(self, fault_set: Iterable[Node]) -> int:
        id_of = self._id_of
        mask = 0
        for node in fault_set:
            mask |= 1 << id_of[node]
        return mask

    def _surviving_rows(self, fault_mask: int) -> List[int]:
        """Masked adjacency rows of ``R(G, rho)/F`` (faulty rows zeroed)."""
        alive = self._full_mask & ~fault_mask
        rows = [row & alive for row in self._base_rows]
        remaining = fault_mask
        while remaining:
            bit = remaining & -remaining
            rows[bit.bit_length() - 1] = 0
            remaining ^= bit
        if not fault_mask:
            return rows

        if not self._multi:
            kill_rows = self._kill_rows
            remaining = fault_mask
            while remaining:
                bit = remaining & -remaining
                for sid, mask in kill_rows[bit.bit_length() - 1].items():
                    rows[sid] &= ~mask
                remaining ^= bit
            return rows

        affected: Set[IdPair] = set()
        pairs_through = self._pairs_through
        remaining = fault_mask
        while remaining:
            bit = remaining & -remaining
            pairs = pairs_through.get(bit.bit_length() - 1)
            if pairs:
                affected |= pairs
            remaining ^= bit
        multi_routes = self._pair_routes
        for sid, tid in affected:
            if (fault_mask >> sid) & 1 or (fault_mask >> tid) & 1:
                continue
            if any(mask & fault_mask == 0 for mask in multi_routes[(sid, tid)]):
                continue
            rows[sid] &= ~(1 << tid)
        return rows

    # ------------------------------------------------------------------
    # Graph materialisation
    # ------------------------------------------------------------------
    def _build_digraph(self, rows: List[int], alive: int) -> DiGraph:
        base_name = (self.graph.name if self.graph is not None else "") or "G"
        surviving = DiGraph(name=f"R({base_name})/F")
        nodes = self._nodes
        remaining = alive
        while remaining:
            bit = remaining & -remaining
            surviving.add_node(nodes[bit.bit_length() - 1])
            remaining ^= bit
        remaining = alive
        while remaining:
            bit = remaining & -remaining
            sid = bit.bit_length() - 1
            source = nodes[sid]
            targets = rows[sid]
            while targets:
                tbit = targets & -targets
                surviving.add_edge(source, nodes[tbit.bit_length() - 1])
                targets ^= tbit
            remaining ^= bit
        return surviving

    def surviving_route_graph(self, faults: Iterable[Node]) -> DiGraph:
        """Return ``R(G, rho)/F`` — identical to the naive construction."""
        fault_mask = self._fault_mask(self._check_faults(faults))
        rows = self._surviving_rows(fault_mask)
        return self._build_digraph(rows, self._full_mask & ~fault_mask)

    # ------------------------------------------------------------------
    # Diameter evaluation
    # ------------------------------------------------------------------
    def surviving_diameter(
        self,
        faults: Iterable[Node],
        cap: Optional[float] = None,
        kernel: Optional[str] = None,
    ) -> float:
        """Return the diameter of ``R(G, rho)/F`` (``inf`` if disconnected).

        Parameters
        ----------
        cap:
            Optional eccentricity cap: when given, the evaluation returns
            ``inf`` as soon as some source's eccentricity is proven to exceed
            ``cap`` (so a finite return value is always the exact diameter,
            and any return value compares against ``cap`` exactly like the
            true diameter does).
        kernel:
            ``None`` (default) follows the index's resolved backend
            (:attr:`eval_backend`).  An explicit ``"bitset"`` forces the
            big-int kernel, ``"numpy"`` the packed-uint64 kernel (raising
            where numpy is unavailable).  Both kernels return identical
            values.
        """
        fault_set = self._check_faults(faults)
        if kernel is None:
            kernel = self.eval_backend
        if kernel == EVAL_BACKEND_NUMPY:
            np_kernel = self._ensure_np_kernel()
            if np_kernel is None:
                raise ValueError(
                    "the numpy kernel was requested but numpy is unavailable "
                    "(not installed, or disabled via REPRO_NO_NUMPY)"
                )
            ids = sorted(self._id_of[node] for node in fault_set)
            return np_kernel.diameters([ids], cap=cap)[0]
        if kernel != EVAL_BACKEND_BITSET:
            raise ValueError(f"unknown kernel {kernel!r}")
        fault_mask = self._fault_mask(fault_set)
        rows = self._surviving_rows(fault_mask)
        return _rows_diameter_witness(
            rows,
            self._full_mask & ~fault_mask,
            self._base_rows,
            self._base_succ,
            cap,
        )[0]

    #: Battery entries evaluated per numpy-kernel call: bounds the scratch
    #: tensors to a fixed width so arbitrarily large batteries stream through
    #: the same preallocated buffers.
    _NP_BATCH = 64

    #: Candidate-batch width for :meth:`EvalCursor.batch_with_added` (the
    #: greedy adversary's rounds).  Narrower than :attr:`_NP_BATCH`: a
    #: candidate round's gather tensor is hot for only 2-3 BFS levels, so
    #: keeping it cache-resident beats amortising Python overhead further —
    #: 16 lanes × 4 words is the measured sweet spot on dense ~200-node
    #: instances.
    _NP_CANDIDATE_BATCH = 16

    def surviving_diameters(
        self,
        fault_sets: Iterable[Iterable[Node]],
        cap: Optional[float] = None,
    ) -> List[float]:
        """Surviving diameters for a whole battery of fault sets, in order.

        The batch entry point every shard executor task evaluates its
        shard through.  On the numpy backend the battery
        advances **together** — one packed reach tensor, one vectorised BFS
        level advance for all entries — which is where the backend's speedup
        comes from; on the bitset backend this is exactly a loop of
        :meth:`surviving_diameter` calls.  ``cap`` applies to every entry
        (same semantics as in :meth:`surviving_diameter`).
        """
        batch = list(fault_sets)
        if self.eval_backend == EVAL_BACKEND_NUMPY:
            np_kernel = self._ensure_np_kernel()
            if np_kernel is not None:
                id_of = self._id_of
                id_lists = [
                    sorted(id_of[node] for node in self._check_faults(fs))
                    for fs in batch
                ]
                out: List[float] = []
                for start in range(0, len(id_lists), self._NP_BATCH):
                    out.extend(
                        np_kernel.diameters(
                            id_lists[start : start + self._NP_BATCH], cap=cap
                        )
                    )
                return out
        return [self.surviving_diameter(fs, cap=cap) for fs in batch]

    def surviving_diameter_at_most(
        self, faults: Iterable[Node], bound: float
    ) -> bool:
        """Decide ``surviving_diameter(faults) <= bound`` with early exit.

        Equivalent to computing the diameter and comparing, but the kernel
        stops at the first BFS level that proves some eccentricity exceeds
        ``bound``.
        """
        if bound != bound:  # NaN: no diameter satisfies the comparison
            return False
        if bound == INFINITY:
            return True
        return self.surviving_diameter(faults, cap=bound) <= bound

    # ------------------------------------------------------------------
    # Evaluation cursors
    # ------------------------------------------------------------------
    def cursor(self, faults: Iterable[Node] = ()) -> "EvalCursor":
        """Return an :class:`EvalCursor` caching the evaluation state of ``F``.

        The cursor snapshots the masked adjacency rows for ``faults`` so
        derived fault sets (``cursor.with_added(v)``) are evaluated by a
        delta update touching only the rows indexed under ``v``.
        """
        fault_mask = self._fault_mask(self._check_faults(faults))
        rows = self._surviving_rows(fault_mask)
        return EvalCursor(self, fault_mask, rows)

    def candidate_diameters(
        self,
        base_faults: Iterable[Node],
        candidates: Iterable[Node],
        cap: Optional[float] = None,
    ) -> List[float]:
        """Surviving diameters of ``F | {v}`` for every candidate ``v``.

        The index-level face of :meth:`EvalCursor.batch_with_added`: one
        shared cursor for ``base_faults`` seeds a delta update per
        candidate, and the whole candidate round is evaluated as a single
        batch (one packed reach tensor on the numpy backend).  ``cap``
        follows the :meth:`surviving_diameter` contract — finite values are
        exact, ``inf`` means disconnected or proven above the cap.
        """
        cursor = self.cursor(base_faults)
        return [
            value
            for _child, value in cursor.batch_with_added(candidates, cap=cap)
        ]


class EvalCursor:
    """Cached evaluation state for one fault set ``F`` over a :class:`RouteIndex`.

    A cursor owns the masked adjacency rows of ``R(G, rho)/F`` and memoises
    the diameter (and, for disconnected graphs, a witness of the
    disconnection).  :meth:`with_added` derives the cursor for ``F | {v}``
    with a delta update that touches only the rows indexed under ``v``.
    Cursors are immutable snapshots: deriving a new cursor never changes the
    parent, so one cursor can seed many trial evaluations.
    """

    __slots__ = (
        "_index",
        "_fault_mask",
        "_rows",
        "_pending_rows",
        "_alive",
        "_diameter",
        "_unreached",
        "_lower_bound",
        "_capped_unreached",
        "_sibling_bounds",
        "_fault_ids",
        "_faults_view",
    )

    def __init__(
        self, index: RouteIndex, fault_mask: int, rows: Optional[List[int]]
    ) -> None:
        self._index = index
        self._fault_mask = fault_mask
        # Masked adjacency rows, or ``None`` for a cursor whose rows have
        # not been derived yet.  :meth:`with_added` hands out lazy children
        # (``_pending_rows`` holds the parent cursor and the added node id)
        # because the numpy kernel evaluates from the fault mask alone: a
        # candidate cursor that loses its greedy round never pays the
        # row-delta cost.  ``_materialise_rows`` resolves the chain on first
        # access (bitset evaluation, digraph export, or deriving onward).
        self._rows = rows
        self._pending_rows: Optional[Tuple["EvalCursor", int]] = None
        self._alive = index._full_mask & ~fault_mask
        self._diameter: Optional[float] = None
        # (source bit, unreached mask) witnessing a disconnection, when known.
        self._unreached: Optional[Tuple[int, int]] = None
        # Proven lower bound on the diameter.  A capped evaluation that
        # exceeds its cap without finding a disconnection cannot memoise an
        # exact diameter, but it *does* prove ``diameter >= floor(cap) + 1``
        # — remembered here so later calls with a cap (or bound) below the
        # failed one short-circuit instead of repeating the BFS.
        self._lower_bound: float = 0
        # (source bit, unreached mask, lb): every node of the mask is at
        # distance >= lb from the source.  The per-source witness behind
        # ``_lower_bound``; ``with_added`` propagates it to derived cursors
        # (removing arcs only increases distances), so a failing bound check
        # transfers to children without running a single BFS.
        self._capped_unreached: Optional[Tuple[int, int, int]] = None
        # node id -> (source bit, unreached mask, lb): capped witnesses
        # learned for *sibling* fault sets ``F | {u}`` (one entry per
        # candidate ``u`` some batch evaluated from this cursor).  A bound
        # for ``F | {u}`` says nothing about ``F`` itself or about another
        # sibling ``F | {w}``, so it cannot live in ``_capped_unreached`` —
        # but it transfers to any *descendant* that re-adds ``u``:
        # ``with_added(v)`` hands the (bit-filtered) store down, and applies
        # the entry for ``v`` directly to the child.  This is what carries a
        # bound learned in one greedy round to the next round's candidates
        # instead of discarding it with the losing sibling cursor.
        self._sibling_bounds: Optional[Dict[int, Tuple[int, int, int]]] = None
        # Lazily computed views of the fault mask, cached because serving
        # workloads fire many identical queries at one cursor: the sorted
        # fault-id list every numpy evaluation needs, and the label
        # frozenset the ``faults`` property hands out.  Rebuilding either
        # per query is pure allocation churn — the mask never changes.
        self._fault_ids: Optional[List[int]] = None
        self._faults_view: Optional[FrozenSet[Node]] = None

    @property
    def faults(self) -> FrozenSet[Node]:
        """The cursor's fault set, in original node labels (cached)."""
        view = self._faults_view
        if view is None:
            nodes = self._index._nodes
            view = self._faults_view = frozenset(
                nodes[nid] for nid in self._fault_id_list()
            )
        return view

    def _fault_id_list(self) -> List[int]:
        """The cursor's fault ids, ascending — computed once per cursor."""
        ids = self._fault_ids
        if ids is None:
            ids = self._fault_ids = _mask_ids(self._fault_mask)
        return ids

    def _materialise_rows(self) -> List[int]:
        """Resolve (and cache) the cursor's masked adjacency rows.

        Lazy cursors hold ``(parent, nid)`` instead of rows; the chain backs
        up to the nearest materialised ancestor (bounded by the derivation
        depth, e.g. the greedy fault-set size) and applies each delta on the
        way down.
        """
        rows = self._rows
        if rows is None:
            parent, nid = self._pending_rows
            rows = self._derive_rows(parent._materialise_rows(), nid)
            self._rows = rows
            self._pending_rows = None
        return rows

    def _derive_rows(self, parent_rows: List[int], nid: int) -> List[int]:
        """Parent rows with node ``nid`` (newly faulty) masked out."""
        index = self._index
        bit = 1 << nid
        rows = list(parent_rows)
        rows[nid] = 0
        if not index._multi:
            # Kill masks cover every arc v affects, including arcs into v
            # (v lies on its own routes), in one AND per indexed source.
            for sid, mask in index._kill_rows[nid].items():
                rows[sid] &= ~mask
        else:
            not_bit = ~bit
            fault_mask = self._fault_mask
            # Drop v as a target of its surviving predecessors (the parent's
            # alive mask is this cursor's with v restored)...
            preds = index._base_preds[nid] & (self._alive | bit)
            while preds:
                pbit = preds & -preds
                rows[pbit.bit_length() - 1] &= not_bit
                preds ^= pbit
            # ... and kill the arcs of pairs all of whose routes now die.
            multi_routes = index._pair_routes
            for sid, tid in index._pairs_through.get(nid, _NO_PAIRS):
                if (fault_mask >> sid) & 1 or (fault_mask >> tid) & 1:
                    continue
                if any(mask & fault_mask == 0 for mask in multi_routes[(sid, tid)]):
                    continue
                rows[sid] &= ~(1 << tid)
        return rows

    def surviving_route_graph(self) -> DiGraph:
        """Materialise ``R(G, rho)/F`` for the cursor's fault set."""
        return self._index._build_digraph(self._materialise_rows(), self._alive)

    def diameter(self, cap: Optional[float] = None) -> float:
        """Return the surviving diameter (memoised; ``cap`` as in the index)."""
        if self._diameter is None:
            if cap is not None and cap < self._lower_bound:
                # A previous capped evaluation already proved the diameter
                # exceeds this cap; no BFS needed.
                return INFINITY
            value, witness, capped = self._evaluate(cap)
            if cap is not None and value == INFINITY and witness is None:
                # Cap exceeded without a disconnection witness: the exact
                # value is unknown, so do not memoise it — but the failed
                # cap is a proven lower bound, so remember that instead.
                bound = math.floor(cap) + 1
                if capped is not None and capped[2] > bound:
                    bound = capped[2]
                if bound > self._lower_bound:
                    self._lower_bound = bound
                if capped is not None:
                    self._capped_unreached = capped
                return INFINITY
            self._diameter = value
            self._unreached = witness
        return self._diameter

    def diameter_at_most(self, bound: float) -> bool:
        """Decide ``diameter() <= bound`` with the bounded BFS early exit."""
        if bound != bound:
            return False
        if bound == INFINITY:
            return True
        if self._diameter is not None:
            return self._diameter <= bound
        if bound < self._lower_bound:
            # diameter >= _lower_bound > bound, proven by an earlier capped
            # evaluation (possibly inherited from a parent cursor).
            return False
        return self.diameter(cap=bound) <= bound

    def _evaluate(
        self, cap: Optional[float]
    ) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
        """One diameter evaluation through the index's resolved backend."""
        index = self._index
        if index.eval_backend == EVAL_BACKEND_NUMPY:
            kernel = index._ensure_np_kernel()
            if kernel is not None:
                value, witness, capped = kernel.diameter_witness(
                    self._fault_id_list(), cap
                )
                return value, witness, capped
        return _rows_diameter_witness(
            self._materialise_rows(),
            self._alive,
            index._base_rows,
            index._base_succ,
            cap,
        )

    def with_added(self, node: Node) -> "EvalCursor":
        """Return the cursor for ``F | {node}`` via a delta update.

        Only the surviving predecessors of ``node`` and the pairs routed
        through it are touched; every other row is shared with the parent by
        value (rows are immutable ints).  The delta itself is *deferred*:
        the child records ``(parent, node)`` and derives its rows on first
        access, so candidates evaluated purely through the numpy kernel
        (which reads the fault mask, not the rows) never pay for it.

        The returned cursor is always a distinct object, even when ``node``
        is already faulty (it then shares the parent's rows and memoised
        state): callers may memoise further results on it without mutating
        the parent.
        """
        index = self._index
        nid = index._id_of.get(node)
        if nid is None:
            raise FaultModelError(
                f"faulty node {node!r} is not a node of the graph"
            )
        bit = 1 << nid
        if self._fault_mask & bit:
            # Same fault set, but hand back a distinct cursor so memoising
            # on the child never aliases into the parent.
            twin = EvalCursor(index, self._fault_mask, self._rows)
            twin._pending_rows = self._pending_rows
            twin._diameter = self._diameter
            twin._unreached = self._unreached
            twin._lower_bound = self._lower_bound
            twin._capped_unreached = self._capped_unreached
            twin._fault_ids = self._fault_ids
            twin._faults_view = self._faults_view
            if self._sibling_bounds:
                # Same fault set, so every sibling bound applies verbatim —
                # but copy the store so memoising on the twin never mutates
                # the parent.
                twin._sibling_bounds = dict(self._sibling_bounds)
            return twin
        fault_mask = self._fault_mask | bit
        not_bit = ~bit
        # Rows stay lazy: the delta update is deferred until something
        # actually reads them (see ``_materialise_rows``), so a candidate
        # evaluated purely through the numpy kernel never derives its rows.
        child = EvalCursor(index, fault_mask, None)
        child._pending_rows = (self, nid)
        # Removing arcs can only shrink reachability: if the parent is
        # disconnected by a missing target other than v (from a source other
        # than v), the child is disconnected too — no BFS needed.
        if self._unreached is not None:
            source_bit, unreached = self._unreached
            if source_bit != bit and unreached & not_bit:
                child._diameter = INFINITY
                child._unreached = (source_bit, unreached & not_bit)
        # The capped witness transfers by the same monotonicity: nodes at
        # distance >= lb from the source stay at least that far away once
        # more arcs are removed, so the child inherits the lower bound.
        if self._capped_unreached is not None:
            source_bit, unreached, lb = self._capped_unreached
            if source_bit != bit and unreached & not_bit:
                if lb > child._lower_bound:
                    child._lower_bound = lb
                child._capped_unreached = (source_bit, unreached & not_bit, lb)
        if self._sibling_bounds:
            # A bound learned for ``F | {node}`` by an earlier batch from
            # this cursor is a bound on exactly the child's fault set.
            own = self._sibling_bounds.get(nid)
            if own is not None:
                source_bit, unreached, lb = own
                if lb > child._lower_bound:
                    child._lower_bound = lb
                if (
                    child._capped_unreached is None
                    or lb > child._capped_unreached[2]
                ):
                    child._capped_unreached = (source_bit, unreached, lb)
            # Bounds for the other siblings ``F | {u}`` transfer to the
            # child's own candidates ``F | {node} | {u}`` by monotonicity
            # (the child only removes more arcs), provided the witness
            # survives ``node``'s removal.
            inherited: Optional[Dict[int, Tuple[int, int, int]]] = None
            for uid, (source_bit, unreached, lb) in self._sibling_bounds.items():
                if uid == nid or source_bit == bit:
                    continue
                filtered = unreached & not_bit
                if filtered:
                    if inherited is None:
                        inherited = {}
                    inherited[uid] = (source_bit, filtered, lb)
            child._sibling_bounds = inherited
        return child

    def batch_with_added(
        self, nodes: Iterable[Node], cap: Optional[float] = None
    ) -> List[Tuple["EvalCursor", float]]:
        """Evaluate ``F | {v}`` for every candidate ``v``, in one batch.

        Returns ``[(child cursor, value), ...]`` in candidate order, where
        ``value`` follows the :meth:`diameter` contract for ``cap``: a
        finite value is always the exact surviving diameter, and ``inf``
        means disconnected *or* proven to exceed the cap.  This is the
        batched candidate-evaluation layer of the greedy adversary.

        On the numpy backend all candidates advance through one packed
        ``(k, B)`` uint64 reach tensor (one vectorised BFS for the whole
        round, with ``cap`` aborting hopeless lanes early); the bitset
        backend runs the equivalent loop over :meth:`with_added` children —
        both share this cursor's masked rows, so per-candidate setup is the
        usual delta update either way and the returned values are
        byte-identical across backends.

        Capped evaluations that fail leave their lower bound behind
        **twice**: on the child cursor itself, and in this cursor's sibling
        store, where later :meth:`with_added` derivations (e.g. the next
        greedy round's candidates) pick it up instead of re-proving it.
        Memoised children (a prior exact diameter, or a lower bound already
        above ``cap``) skip their BFS lane entirely.
        """
        index = self._index
        node_list = list(nodes)
        if index.eval_backend == EVAL_BACKEND_NUMPY:
            kernel = index._ensure_np_kernel()
            if kernel is not None:
                children = [self.with_added(node) for node in node_list]
                self._np_batch_evaluate(children, cap, kernel)
                for node, child in zip(node_list, children):
                    self._note_sibling_bound(node, child)
                return [
                    (child, child.diameter(cap=cap)) for child in children
                ]
        results: List[Tuple["EvalCursor", float]] = []
        for node in node_list:
            child = self.with_added(node)
            value = child.diameter(cap=cap)
            self._note_sibling_bound(node, child)
            results.append((child, value))
        return results

    def _note_sibling_bound(self, node: Node, child: "EvalCursor") -> None:
        """Record a capped bound learned for ``F | {node}`` on this cursor."""
        capped = child._capped_unreached
        if capped is None or child._fault_mask == self._fault_mask:
            return
        nid = self._index._id_of[node]
        store = self._sibling_bounds
        if store is None:
            store = self._sibling_bounds = {}
        known = store.get(nid)
        if known is None or capped[2] > known[2]:
            store[nid] = capped

    def _np_batch_evaluate(
        self, children: List["EvalCursor"], cap: Optional[float], kernel
    ) -> None:
        """Memoise diameters/bounds onto ``children`` via one numpy batch.

        Children whose answer is already memoised (an exact diameter, or a
        lower bound proving the cap unreachable) contribute no BFS lane.
        The rest stream through :meth:`NumpyKernel.candidate_witnesses` in
        :attr:`RouteIndex._NP_CANDIDATE_BATCH`-wide chunks — every child
        differs from this cursor by at most one node (``with_added``
        built them), so the kernel derives the per-lane setup once from
        the shared base — and each entry's result is memoised exactly as
        :meth:`diameter` would have.
        """
        pending = [
            child
            for child in children
            if child._diameter is None
            and not (cap is not None and cap < child._lower_bound)
        ]
        step = RouteIndex._NP_CANDIDATE_BATCH
        base_mask = self._fault_mask
        base_ids = _mask_ids(base_mask)
        for start in range(0, len(pending), step):
            chunk = pending[start : start + step]
            # A child's delta from the base is one bit (or none, for a
            # twin of the base set): -1 marks the bare-base lane.
            triples = kernel.candidate_witnesses(
                base_ids,
                [
                    (child._fault_mask & ~base_mask).bit_length() - 1
                    for child in chunk
                ],
                cap,
            )
            for child, (value, witness, capped) in zip(chunk, triples):
                if cap is not None and value == INFINITY and witness is None:
                    # Cap exceeded without a disconnection: remember the
                    # proven lower bound, not the (unknown) exact value.
                    bound = math.floor(cap) + 1
                    if capped is not None and capped[2] > bound:
                        bound = capped[2]
                    if bound > child._lower_bound:
                        child._lower_bound = bound
                    if capped is not None:
                        child._capped_unreached = capped
                else:
                    child._diameter = value
                    child._unreached = witness


def _rows_diameter_witness(
    rows: List[int],
    alive: int,
    base_rows: List[int],
    base_succ: List[List[int]],
    cap: Optional[float] = None,
) -> Tuple[float, Optional[Tuple[int, int]], Optional[Tuple[int, int, int]]]:
    """Diameter of the digraph given by bitset rows.

    ``rows`` must be a subgraph of ``base_rows`` (every row a subset of its
    base row, as fault masking guarantees), and ``base_succ[u]`` lists the
    set bits of ``base_rows[u]`` in ascending order.

    Matches the conventions of :func:`repro.graphs.traversal.diameter`:
    ``inf`` for the empty or non-strongly-connected graph, ``0`` for a single
    node.  With ``cap`` given, returns ``inf`` as soon as the diameter is
    proven to exceed the cap, so a finite return value is always the exact
    diameter and is at most ``cap``.

    The second component witnesses a disconnection when one was found: a
    source's bit and the mask of nodes it cannot reach.  The third component
    is the *capped witness* ``(source bit, unreached mask, lb)`` produced
    when the cap was exceeded without proving a disconnection: every node of
    the mask is at distance at least ``lb`` from the source.  At most one of
    the two witnesses is non-``None``; both are ``None`` when the graph is
    connected within the cap.

    One kernel in two phases.  A frontier BFS from the lowest alive node
    comes first: heavy fault sets usually cut the graph, and this finds the
    cut (or a first eccentricity above the cap) in ``O(n)`` word operations.
    Then every node's reach advances together: ``reach[u]`` is the set of
    nodes within distance ``level`` of ``u``, and one level advance ORs the
    previous level's reach of each successor into it.  A node whose reach is
    complete drops out and costs nothing on later levels, and a node whose
    reach stops growing before it is complete proves a disconnection.
    Successor lists come from ``base_succ``: shared as-is for rows no fault
    touched, filtered for the rest.
    """
    if not alive:
        return INFINITY, None, None
    if not alive & (alive - 1):
        return 0, None, None
    source_bit = alive & -alive
    visited = frontier = source_bit
    eccentricity = 0
    while visited != alive:
        reach = 0
        while frontier:
            fbit = frontier & -frontier
            reach |= rows[fbit.bit_length() - 1]
            frontier ^= fbit
        frontier = reach & ~visited
        if not frontier:
            return INFINITY, (source_bit, alive & ~visited), None
        eccentricity += 1
        if cap is not None and eccentricity > cap:
            # visited covers distance <= eccentricity - 1: the unvisited
            # nodes sit at distance >= eccentricity, a capped witness.
            return INFINITY, None, (source_bit, alive & ~visited, eccentricity)
        visited |= frontier

    # reach[u] = nodes within distance <= level of u; level starts at 1.
    reach = list(rows)
    pending: List[int] = []
    remaining = alive
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        node = bit.bit_length() - 1
        row = reach[node] = rows[node] | bit
        if row != alive:
            pending.append(node)
    # Successor lists, made on a node's first advance (if it gets one).
    succ: List[Optional[List[int]]] = [None] * len(rows)
    level = 1
    while pending:
        if cap is not None and level + 1 > cap:
            # Some node is still incomplete, so the diameter is at least
            # level + 1: its unreached nodes are a capped witness.
            node = pending[0]
            return INFINITY, None, (1 << node, alive & ~reach[node], level + 1)
        # On the last advance the cap allows, the first node left
        # incomplete already proves the diameter exceeds the cap.
        last = cap is not None and level + 2 > cap
        advanced = reach[:]
        still: List[int] = []
        for node in pending:
            old = acc = reach[node]
            targets = succ[node]
            if targets is None:
                row = rows[node]
                if row == base_rows[node]:
                    targets = base_succ[node]
                else:
                    targets = [t for t in base_succ[node] if row >> t & 1]
                succ[node] = targets
            for target in targets:
                acc |= reach[target]
                if acc == alive:
                    break
            if acc == old:
                # The ball around node stopped growing short of alive.
                return INFINITY, (1 << node, alive & ~acc), None
            if acc != alive:
                if last:
                    return INFINITY, None, (1 << node, alive & ~acc, level + 2)
                still.append(node)
            advanced[node] = acc
        reach = advanced
        pending = still
        level += 1
    return level, None, None
