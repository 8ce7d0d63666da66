"""The shard executor: every campaign and tolerance scan evaluates through it.

Every campaign, battery and sweep in the library reduces to the same loop —
"for each fault set, compute the surviving diameter" — evaluated against a
:class:`~repro.core.route_index.RouteIndex` built once per routing (every
fault set subtracts its affected arcs from the cached base route graph
instead of re-walking all ``n^2`` routes).

:class:`ShardExecutor` runs that loop for the library's two callers:
:func:`repro.scenarios.suite.run_scenario_suite` (``repro campaign`` and
``repro grid``; many scenarios, keyed by their canonical specs) and the
tolerance scans of :mod:`repro.core.tolerance` (one in-memory routing,
through :func:`evaluate_on_index`).  Batteries are planned by
:func:`repro.scenarios.suite.plan_campaign`, which cuts them into
:class:`ShardTask` descriptors (a greedy probe is one more task, grown by a
worker).  One supervised :mod:`multiprocessing` pool — or the calling
process, with one worker — evaluates the tasks, streaming outcomes back in
task order so folding is incremental (bounded memory) and byte-for-byte
independent of the worker count.  This module imports the suite lazily,
since the suite builds on it.

Determinism is a hard requirement: the same integer seed must produce the
same outcomes whether the battery runs in-process or across N workers.
Two design rules enforce it:

1. sharding is a pure function of the battery and ``chunk_size`` — never of
   the worker count — and outcomes are yielded in shard order;
2. randomly generated batteries use *per-shard seeding*: shard ``i`` of a
   campaign draws its fault sets from ``random.Random(shard_seed(seed, tag,
   i))``, so a worker can regenerate its shard locally from a tiny
   descriptor (no fault sets cross the process boundary on the way in) and
   the battery is identical no matter which worker runs which shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random as _random
import weakref
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.route_index import RouteIndex
from repro.faults.models import FaultSet
from repro.graphs.graph import Graph
from repro.runtime import Supervisor, SupervisorPolicy, chaos_point, shutdown_pool

Node = Hashable
Outcome = Tuple[FaultSet, float]
Workload = Tuple[RouteIndex, Optional[str]]

#: Default number of fault sets per shard.  Sharding depends only on this
#: value and the battery, never on the worker count, so results are
#: reproducible across pool sizes.
DEFAULT_CHUNK_SIZE = 32


def shard_seed(seed: int, tag: str, shard: int) -> int:
    """Derive a stable 64-bit seed for one shard of a campaign.

    The derivation hashes ``(seed, tag, shard)`` with SHA-256 rather than
    Python's ``hash`` so it is identical across processes and interpreter
    runs (``hash`` is salted by ``PYTHONHASHSEED``).
    """
    digest = hashlib.sha256(f"{seed}:{tag}:{shard}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_fault_size(label: str, fault_size: int, nodes: int) -> None:
    """Refuse a fault size larger than the graph before any work is planned.

    ``label`` names the campaign's scenario (or graph) in the message.
    """
    if fault_size > nodes:
        raise ValueError(
            f"{label}: fault size {fault_size} exceeds the graph's {nodes} nodes"
        )


def workload_key(spec: Optional[str], backend: Optional[str]) -> str:
    """Key of one (scenario, resolved eval backend) workload.

    The backend is part of the key so a parent-broadcast slim index (built
    with the parent's resolved backend) is never conflated with a
    worker-side rebuild under a different one.  Tolerance-scan tasks carry
    no scenario, so their single workload is ``workload_key(None, None)``.
    """
    return f"{spec}\x00{backend}"


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One unit of worker work: a battery slice evaluated against one workload.

    ``mode`` selects where the slice's fault sets come from:

    * ``"explicit"`` — ``fault_sets`` carries them;
    * ``"random"`` — ``count`` uniform sets of ``fault_size`` drawn from
      ``random.Random(seed)``, with global sample indices starting at
      ``start`` (used only for the descriptions);
    * ``"random-p"`` — ``count`` binomial sets, each node failing with
      probability ``p``;
    * ``"exhaustive"`` — the combinations of ``fault_size`` at
      :func:`itertools.combinations` offsets ``start .. start + count`` over
      the ``repr``-sorted node pool;
    * ``"greedy"`` — one adversarially-grown set of ``fault_size`` (the
      batched greedy search with ``candidate_limit`` candidates per round,
      seeded by ``seed``);
    * ``"build"`` — no fault sets: construct the scenario ``spec`` (graph,
      routing and an index with ``backend``) and return its slim index and
      construction metadata (see
      :func:`repro.scenarios.suite.build_scenario`).

    Every set is evaluated with the eccentricity cap ``cap`` (``None``:
    exact diameters).  Capped outcomes are the exact diameter when it is at
    most the cap and ``inf`` otherwise.

    ``spec`` and ``backend`` name the workload.  Suite tasks carry their
    canonical scenario string and the **parent-resolved** eval backend, so a
    worker that has to rebuild the scenario constructs exactly the parent's
    index instead of consulting its own environment.  Tolerance-scan tasks
    leave both ``None``.  ``campaign_key`` is the suite row (scenario position,
    campaign position) the outcomes fold into.
    """

    mode: str
    fault_sets: Optional[Tuple[FaultSet, ...]] = None
    fault_size: int = 0
    p: float = 0.0
    count: int = 0
    start: int = 0
    seed: int = 0
    cap: Optional[float] = None
    candidate_limit: int = 0
    spec: Optional[str] = None
    campaign_key: Optional[Tuple[int, int]] = None
    backend: Optional[str] = None

    @property
    def key(self) -> str:
        """The workload this task evaluates against (see :func:`workload_key`)."""
        return workload_key(self.spec, self.backend)

    @property
    def label(self) -> str:
        """Chaos-point label; ``REPRO_CHAOS`` match filters test it by substring."""
        if self.mode == "build":
            return self.spec
        if self.spec is None:
            return f"shard:start={self.start},size={self.fault_size}"
        return f"{self.spec}#{self.campaign_key[1]}:start={self.start}"

    def materialise(self, pool: Union[Graph, Sequence[Node]]) -> Tuple[FaultSet, ...]:
        """Return the slice's fault sets, generating them when needed.

        ``pool`` is the canonical repr-sorted node pool (see
        :attr:`RouteIndex.node_pool`); passing the pool rather than the graph
        lets workers regenerate slices from the slim, graph-free index.  A
        :class:`Graph` is also accepted and sorted on the fly.  ``"greedy"``
        tasks need the index itself and are grown by the worker instead.
        """
        if self.mode == "explicit":
            return self.fault_sets
        if isinstance(pool, Graph):
            pool = sorted(pool.nodes(), key=repr)
        if self.mode == "exhaustive":
            return tuple(
                FaultSet(combo, description=f"exhaustive size {self.fault_size}")
                for combo in _combinations_slice(
                    pool, self.fault_size, self.start, self.count
                )
            )
        rng = _random.Random(self.seed)
        if self.mode == "random-p":
            return tuple(
                FaultSet(
                    [node for node in pool if rng.random() < self.p],
                    description=f"random p={self.p} #{self.start + offset}",
                )
                for offset in range(self.count)
            )
        return tuple(
            FaultSet(
                rng.sample(pool, self.fault_size),
                description=f"random #{self.start + offset}",
            )
            for offset in range(self.count)
        )


def _combinations_slice(pool, size: int, start: int, count: int):
    """Yield ``itertools.combinations(pool, size)[start : start + count]``.

    The first combination is *unranked* directly (combinatorial number
    system, ``O(size * n)``) and successors are stepped lexicographically,
    so a shard deep into a large enumeration does not re-generate and skip
    every earlier combination the way ``islice`` would.
    """
    n = len(pool)
    if size < 0 or size > n or count <= 0:
        return
    if size == 0:
        if start == 0:
            yield ()
        return
    total = math.comb(n, size)
    if start >= total:
        return
    # Unrank the first combination in lexicographic order.
    indices: List[int] = []
    rank = start
    position = 0
    for remaining in range(size, 0, -1):
        while math.comb(n - position - 1, remaining - 1) <= rank:
            rank -= math.comb(n - position - 1, remaining - 1)
            position += 1
        indices.append(position)
        position += 1
    emitted = 0
    limit = min(count, total - start)
    while True:
        yield tuple(pool[i] for i in indices)
        emitted += 1
        if emitted >= limit:
            return
        # Lexicographic successor of the index combination.
        pivot = size - 1
        while indices[pivot] == n - size + pivot:
            pivot -= 1
        indices[pivot] += 1
        for follow in range(pivot + 1, size):
            indices[follow] = indices[follow - 1] + 1


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
# Suite scenarios are built by ``"build"`` tasks — in the pool, under the
# same supervision as shards — and each returns only its *slim* index
# (bitset rows + kill masks + node labels, no graph or routing objects —
# see :meth:`RouteIndex.slim`).  :meth:`ShardExecutor.install` registers
# them and restarts the pool once, so its initializer installs them in each
# worker, keyed by workload.  Only shard descriptors and outcome rows cross
# the process boundary afterwards; shards regenerate their fault sets from
# the index's canonical node pool.  Without a shared payload
# (``share_index=False``) workers rebuild each scenario from its canonical
# string instead, at most ``_WORKLOAD_LIMIT`` at a time (FIFO), which is
# what makes the parent's fingerprint verification a genuine determinism
# check between independent constructions.
_WORKLOADS: Dict[str, Workload] = {}
_WORKLOAD_LIMIT = 8


def _install_workloads(payload: Optional[Dict[str, Workload]]) -> None:
    """Pool initializer: replace this worker's workloads with ``payload``.

    The registry is cleared first: under the ``fork`` start method a worker
    would otherwise inherit whatever its parent process held.
    """
    _WORKLOADS.clear()
    if payload:
        _WORKLOADS.update(payload)


def _workload(task: ShardTask, workloads: Dict[str, Workload]) -> Workload:
    """Look the task's index up, rebuilding its scenario on a miss."""
    key = task.key
    cached = workloads.get(key)
    if cached is None:
        from repro.scenarios.spec import parse_scenario

        graph, result = parse_scenario(task.spec).build()
        cached = (
            RouteIndex(graph, result.routing, backend=task.backend),
            result.fingerprint(),
        )
        if len(workloads) >= _WORKLOAD_LIMIT:
            workloads.pop(next(iter(workloads)))
        workloads[key] = cached
    return cached


def _run_shard(
    task: ShardTask, workloads: Optional[Dict[str, Workload]] = None
) -> Tuple[Optional[str], List[Outcome]]:
    """Evaluate one shard; returns ``(workload fingerprint, outcomes)``.

    Pool workers evaluate against the installed ``_WORKLOADS``; the
    executor's in-process path passes its own ``workloads``.  ``"build"``
    tasks construct their scenario instead and return
    :func:`repro.scenarios.suite.build_scenario`'s value.
    """
    if task.mode == "build":
        from repro.scenarios.suite import build_scenario

        return build_scenario(task)
    chaos_point("task", task.label)
    index, fingerprint = _workload(
        task, _WORKLOADS if workloads is None else workloads
    )
    if task.mode == "greedy":
        from repro.faults.adversary import greedy_fault_set_from_index

        fault_sets: Tuple[FaultSet, ...] = (
            greedy_fault_set_from_index(
                index,
                task.fault_size,
                candidate_limit=task.candidate_limit,
                seed=task.seed,
            ),
        )
    else:
        fault_sets = task.materialise(index.node_pool)
    # One batched call per shard: the numpy backend evaluates the whole
    # slice in a handful of vectorised level advances, and the bitset
    # backend degrades to a per-set loop.
    values = index.surviving_diameters(fault_sets, cap=task.cap)
    return fingerprint, list(zip(fault_sets, values))


class ShardExecutor:
    """Evaluate :class:`ShardTask` streams through one supervised pool.

    Parameters
    ----------
    workloads:
        ``{workload key: (index, fingerprint)}`` known up front;
        :meth:`install` adds more between runs (the suite's built
        scenarios).
    workers:
        ``1`` evaluates in-process with no :mod:`multiprocessing` at all;
        larger values start one pool on first use whose initializer installs
        the slim indexes in every worker.  The pool persists until
        :meth:`close`, so consecutive runs pay its start-up once.
    policy:
        The :class:`~repro.runtime.SupervisorPolicy` of every run.
    share_index:
        ``False`` ships no indexes: workers rebuild each scenario from the
        canonical spec its tasks carry.
    supervised:
        ``False`` drains tasks through a bare ``pool.imap`` with no
        timeouts, retries or crash recovery — the benchmark baseline for the
        supervisor's overhead gate.
    """

    def __init__(
        self,
        workloads: Dict[str, Workload],
        workers: int = 1,
        policy: Optional[SupervisorPolicy] = None,
        share_index: bool = True,
        supervised: bool = True,
    ) -> None:
        self.workloads = workloads
        self.workers = workers
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.share_index = share_index
        self.supervised = supervised
        self._pool = None
        self._pool_finalizer = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            payload = (
                {
                    key: (index.slim(), fingerprint)
                    for key, (index, fingerprint) in self.workloads.items()
                }
                if self.share_index
                else None
            )
            self._pool = multiprocessing.Pool(
                self.workers, initializer=_install_workloads, initargs=(payload,)
            )
            self._pool_finalizer = weakref.finalize(self, shutdown_pool, self._pool)
        return self._pool

    def _rebuild_pool(self):
        """Replace a broken or wedged pool; the initializer re-ships the payload."""
        self.close()
        return self._ensure_pool()

    def _run_local(self, task: ShardTask):
        return _run_shard(task, self.workloads)

    def install(self, workloads: Dict[str, Workload]) -> None:
        """Register ``workloads`` for the following runs.

        A running pool that ships indexes is shut down so the next run
        starts a fresh one whose initializer installs them; without a
        shared payload the pool is kept.
        """
        self.workloads.update(workloads)
        if self.share_index:
            self.close()

    def close(self) -> None:
        """Terminate the worker pool (no-op when none was started)."""
        if self._pool is not None:
            self._pool_finalizer.detach()
            self._pool_finalizer = None
            shutdown_pool(self._pool)
            self._pool = None

    def run(self, tasks: Iterable[ShardTask]) -> Iterator[Tuple[ShardTask, object]]:
        """Yield ``(task, result)`` in task order.

        ``result`` is :func:`_run_shard`'s ``(fingerprint, outcomes)`` pair
        (a ``"build"`` task's :func:`repro.scenarios.suite.build_scenario`
        value), or a :class:`~repro.runtime.FailedTask` for a task the
        supervisor quarantined (never under a ``strict`` policy, which
        raises instead).
        """
        if not self.supervised:
            if self.workers == 1:
                return ((task, self._run_local(task)) for task in tasks)
            tasks = list(tasks)
            return zip(tasks, self._ensure_pool().imap(_run_shard, tasks))
        pooled = self.workers > 1
        supervisor = Supervisor(
            _run_shard,
            ensure_pool=self._ensure_pool if pooled else None,
            rebuild_pool=self._rebuild_pool if pooled else None,
            local_fn=self._run_local,
            policy=self.policy,
            workers=self.workers,
        )
        return supervisor.run(tasks)


def evaluate_on_index(
    index: RouteIndex, tasks: Iterable[ShardTask], workers: int = 1
) -> Iterator[Outcome]:
    """Yield ``(fault_set, diameter)`` for ``tasks`` against one in-memory index.

    The tasks run on a :class:`ShardExecutor` whose single workload is
    ``index`` (with ``workers > 1`` its slim copy is shipped to the pool),
    and outcomes come back in task order.  The policy is **strict**: a
    stream with holes would be silently wrong, so a task that exhausts its
    retry budget raises :class:`~repro.runtime.TaskFailedError` instead of
    being quarantined.  The executor is closed when the stream is exhausted
    or closed, so a consumer that stops early should close the stream (for
    instance with :func:`contextlib.closing`).
    """
    executor = ShardExecutor(
        {workload_key(None, None): (index, None)},
        workers=workers,
        policy=SupervisorPolicy(strict=True),
    )
    try:
        for _task, (_fingerprint, outcomes) in executor.run(tasks):
            yield from outcomes
    finally:
        executor.close()
