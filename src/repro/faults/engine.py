"""The shard executor and the fault-campaign engine built on it.

Every campaign, battery and sweep in the library reduces to the same loop —
"for each fault set, compute the surviving diameter" — evaluated against a
:class:`~repro.core.route_index.RouteIndex` built once per routing (every
fault set subtracts its affected arcs from the cached base route graph
instead of re-walking all ``n^2`` routes).

:class:`ShardExecutor` runs that loop for both campaign front ends,
:class:`CampaignEngine` (one graph and routing) and
:func:`repro.scenarios.suite.run_scenario_suite` (many scenarios).  Both
plan and fold their campaigns with the suite's code:
:func:`repro.scenarios.suite.plan_campaign` cuts a battery into
:class:`ShardTask` descriptors (a greedy probe is one more task, grown by
a worker), and :func:`repro.scenarios.suite.fold_campaign` aggregates a
campaign's outcomes into its row.  One supervised :mod:`multiprocessing`
pool — or the calling process, with one worker — evaluates the tasks,
streaming outcomes back in task order so aggregation is incremental
(bounded memory) and byte-for-byte independent of the worker count.  This
module imports the suite lazily, since the suite builds on it.

Determinism is a hard requirement: the same integer seed must produce the
same campaign rows whether the battery runs in-process or across N workers.
Two design rules enforce it:

1. sharding is a pure function of the battery and ``chunk_size`` — never of
   the worker count — and outcomes are aggregated in shard order;
2. randomly generated batteries use *per-shard seeding*: shard ``i`` of a
   campaign draws its fault sets from ``random.Random(shard_seed(seed, tag,
   i))``, so a worker can regenerate its shard locally from a tiny
   descriptor (no fault sets cross the process boundary on the way in) and
   the battery is identical no matter which worker runs which shard.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
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
from repro.core.routing import MultiRouting, Routing
from repro.faults.models import FaultSet
from repro.faults.simulation import CampaignResult, DecisionCampaignResult
from repro.graphs.graph import Graph
from repro.runtime import Supervisor, SupervisorPolicy, chaos_point, shutdown_pool

Node = Hashable
AnyRouting = Union[Routing, MultiRouting]
Outcome = Tuple[FaultSet, float]
CampaignRow = Union[CampaignResult, DecisionCampaignResult]
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
    worker-side rebuild under a different one.  Engine tasks carry no
    scenario, so their single workload is ``workload_key(None, None)``.
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
    index instead of consulting its own environment.  Engine tasks leave
    both ``None``.  ``campaign_key`` is the suite row (scenario position,
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


class CampaignEngine:
    """Indexed fault-campaign runner over one graph and routing.

    It owns the routing's index and a :class:`ShardExecutor`; campaigns are
    planned and folded by the suite's :func:`~repro.scenarios.suite
    .plan_campaign` and :func:`~repro.scenarios.suite.fold_campaign`.

    Parameters
    ----------
    graph, routing:
        The network and routing under attack.
    workers:
        Number of worker processes.  ``1`` (the default) evaluates in-process
        with no :mod:`multiprocessing` involvement at all; any larger value
        shards batteries across the :class:`ShardExecutor`'s pool.  Results
        are identical either way.
    chunk_size:
        Fault sets per shard (streaming granularity).
    index:
        Optional pre-built :class:`RouteIndex` to reuse; must match
        ``(graph, routing)``.  Built lazily on first use otherwise.
    backend:
        Forwarded to the lazily built :class:`RouteIndex` (ignored when a
        pre-built ``index`` is supplied — that index's resolved backend
        wins).  It is resolved **once**, in the parent process, and travels
        with the slim index to every worker: workers never consult their own
        environment, so a pool whose processes see divergent environment
        variables still evaluates every shard identically.
    policy:
        Optional :class:`~repro.runtime.SupervisorPolicy` tuning the
        supervised dispatch (task timeouts, retry budget, pool rebuilds).
        The engine always runs its supervisor **strict**: a campaign
        aggregate with missing outcomes would be silently wrong, so a shard
        that exhausts its retry budget raises
        :class:`~repro.runtime.TaskFailedError` rather than being
        quarantined (the suite layer quarantines whole campaigns instead).
    """

    def __init__(
        self,
        graph: Graph,
        routing: AnyRouting,
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        index: Optional[RouteIndex] = None,
        backend: Optional[str] = None,
        policy: Optional[SupervisorPolicy] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if index is not None and not index.matches(graph, routing):
            raise ValueError(
                "the supplied RouteIndex was built for a different graph or routing"
            )
        self.graph = graph
        self.routing = routing
        self.workers = workers
        self.chunk_size = chunk_size
        self._index = index
        self._backend = backend
        # Aggregates cannot tolerate holes: dispatch is always fail-fast at
        # the shard level, whatever the caller's quarantine preference.
        self._policy = dataclasses.replace(
            policy if policy is not None else SupervisorPolicy(), strict=True
        )
        self._executor: Optional[ShardExecutor] = None

    # ------------------------------------------------------------------
    # Index access
    # ------------------------------------------------------------------
    @property
    def index(self) -> RouteIndex:
        """The engine's route index (built on first access)."""
        if self._index is None:
            self._index = RouteIndex(self.graph, self.routing, backend=self._backend)
        return self._index

    # ------------------------------------------------------------------
    # Shard evaluation
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Terminate the worker pool (no-op when none was started)."""
        if self._executor is not None:
            self._executor.close()

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_executor(self) -> ShardExecutor:
        """Return the engine's shard executor, created on first use.

        The executor — and with it the pool and the slim index shipped to
        every worker — persists for the engine's lifetime, so a sweep over
        many fault sizes pays the pool start-up and the index serialisation
        once (and the index itself is built once, in the parent).
        """
        if self._executor is None:
            self._executor = ShardExecutor(
                {workload_key(None, None): (self.index, None)},
                workers=self.workers,
                policy=self._policy,
            )
        return self._executor

    def _evaluate_shards(self, shards: Iterable[ShardTask]) -> Iterator[Outcome]:
        """Yield ``(fault_set, diameter)`` in battery order.

        The strict policy raises instead of yielding a
        :class:`~repro.runtime.FailedTask`, so every result is real.
        """
        for _task, (_fingerprint, outcomes) in self._ensure_executor().run(shards):
            yield from outcomes

    def _explicit(
        self, fault_sets: Iterable[FaultSet], cap: Optional[float] = None
    ) -> Iterator[ShardTask]:
        """Plan a caller-supplied battery as ``"explicit"`` shards."""
        from repro.scenarios.suite import plan_campaign

        return plan_campaign(
            "explicit", 0, self.chunk_size, cap, fault_sets=fault_sets
        )

    # ------------------------------------------------------------------
    # Public evaluation surface
    # ------------------------------------------------------------------
    def evaluate(self, fault_sets: Iterable[FaultSet]) -> Iterator[Outcome]:
        """Yield ``(fault_set, surviving_diameter)`` in battery order."""
        return self._evaluate_shards(self._explicit(fault_sets))

    def worst_case(self, fault_sets: Iterable[FaultSet]) -> Tuple[float, Optional[FaultSet], int]:
        """Return ``(worst_diameter, worst_fault_set, evaluated_count)``.

        Matches :func:`repro.core.tolerance.worst_case_diameter`: the first
        fault set realising the strict maximum wins, and ``inf`` dominates.
        """
        worst = -1.0
        worst_set: Optional[FaultSet] = None
        evaluated = 0
        for fault_set, diameter in self.evaluate(fault_sets):
            evaluated += 1
            if diameter > worst:
                worst = diameter
                worst_set = fault_set
        return worst, worst_set, evaluated

    # ------------------------------------------------------------------
    # Bounded-diameter decision scans
    # ------------------------------------------------------------------
    def _bounded_scan(
        self, shards: Iterable[ShardTask], bound: float
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit scan: is every fault set's surviving diameter <= ``bound``?

        Returns ``(worst_diameter, worst_fault_set, evaluated, holds)``.
        The shards carry an eccentricity cap of ``bound`` (an evaluation
        stops at the first BFS level that exceeds the cap), and the scan
        stops at the *first* violating fault set in battery order: on a
        violation ``worst_diameter`` is the exact diameter of that witness
        and ``evaluated`` counts the sets inspected up to and including it.
        When the bound holds, every set was evaluated and ``worst_diameter``
        is the exact battery-wide maximum.

        Evaluation is whole shards at a time, so a violation costs at most
        one chunk of extra work in-process; the pooled supervisor keeps a
        sliding window of a few shards per worker in flight, so an early
        exit leaves at most one window behind instead of the whole remaining
        enumeration.
        """
        worst = -1.0
        worst_set: Optional[FaultSet] = None
        evaluated = 0
        for fault_set, capped in self._evaluate_shards(shards):
            evaluated += 1
            if capped > bound:
                return (
                    self.index.surviving_diameter(fault_set),
                    fault_set,
                    evaluated,
                    False,
                )
            if capped > worst:
                worst = capped
                worst_set = fault_set
        return worst, worst_set, evaluated, True

    def bounded_worst_case(
        self, fault_sets: Iterable[FaultSet], bound: float
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit battery scan against ``bound`` (see :meth:`_bounded_scan`)."""
        return self._bounded_scan(self._explicit(fault_sets, cap=bound), bound)

    def exhaustive_worst_case(
        self, max_faults: int, bound: float, include_smaller: bool = True
    ) -> Tuple[float, Optional[FaultSet], int, bool]:
        """Early-exit exhaustive scan over all fault sets of size <= ``max_faults``.

        Each size is planned as an ``"exhaustive"`` campaign (see
        :func:`repro.scenarios.suite.plan_campaign`): deterministic
        :func:`itertools.combinations` offsets over the ``repr``-sorted node
        pool, in the order of :func:`repro.faults.adversary.all_fault_sets`.
        Workers regenerate their slice locally, so exhaustive tolerance
        checks shard across the pool like random batteries do — no fault
        sets cross the process boundary on the way in.  Sizes above the
        node count have no fault sets and are skipped.
        """
        from repro.scenarios.suite import plan_campaign

        n = self.graph.number_of_nodes()
        first = 0 if include_smaller else max_faults
        tasks = itertools.chain.from_iterable(
            plan_campaign(
                "exhaustive", size, self.chunk_size, bound, total=math.comb(n, size)
            )
            for size in range(first, min(max_faults, n) + 1)
        )
        return self._bounded_scan(tasks, bound)

    # ------------------------------------------------------------------
    # Campaigns
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        fault_size: int,
        samples: int = 100,
        seed: Optional[int] = None,
        fault_sets: Optional[Iterable[FaultSet]] = None,
        bound: Optional[float] = None,
        frame=None,
        greedy: bool = False,
        candidate_limit: int = 40,
    ) -> CampaignRow:
        """Run one campaign at ``fault_size`` and aggregate the outcomes.

        The battery is planned and folded by the suite's
        :func:`~repro.scenarios.suite.plan_campaign` and
        :func:`~repro.scenarios.suite.fold_campaign`, with per-shard seeds
        from ``seed`` (``None``: a fresh random seed), so the result is
        independent of the worker count.  Explicit ``fault_sets`` are
        evaluated as given.

        With ``bound`` given the campaign streams *decisions* instead of
        exact diameters: every fault set is evaluated with an eccentricity
        cap of ``bound`` (``surviving_diameter_at_most`` semantics) and the
        aggregate is a :class:`~repro.faults.simulation
        .DecisionCampaignResult` of pass/fail rows — much cheaper than exact
        evaluation when diameters exceed the bound, and all a tolerance
        table needs.

        With ``greedy`` the battery additionally includes one greedy
        adversarial fault set of ``fault_size``, grown by a ``"greedy"``
        task like the suite's (candidate rounds capped at
        ``candidate_limit``; deterministically seeded from the campaign
        seed), so the aggregate's
        worst-case columns reflect an adversarial probe and not just random
        sampling.  The tunables are stamped onto the result record
        (``backend`` always; ``candidate_limit`` when the greedy probe ran).

        ``frame`` may name a :class:`~repro.results.frame.ResultFrame` built
        over the unified record schema; the campaign's record is appended to
        it (the returned view and the frame row are interconvertible).

        A generated battery whose ``fault_size`` exceeds the node count is
        refused with a :class:`ValueError` before anything is evaluated.
        """
        from repro.scenarios.suite import fold_campaign, plan_campaign

        probe = greedy and fault_size > 0
        base = seed if seed is not None else _random.SystemRandom().getrandbits(64)
        if fault_sets is None:
            check_fault_size(
                self.graph.name or "graph", fault_size, self.graph.number_of_nodes()
            )
        tasks = plan_campaign(
            "random" if fault_sets is None else "explicit",
            fault_size,
            self.chunk_size,
            bound,
            total=samples,
            seed=base,
            tag=f"size={fault_size}",
            fault_sets=fault_sets,
            greedy_seed=(
                shard_seed(base, f"greedy:size={fault_size}", 0) if probe else None
            ),
            candidate_limit=candidate_limit,
        )
        result = fold_campaign(
            fault_size,
            self._evaluate_shards(tasks),
            bound,
            self.index.eval_backend,
            candidate_limit if probe else None,
        )
        if frame is not None:
            frame.append(result.record())
        return result

    def sweep_fault_sizes(
        self,
        sizes: Sequence[int],
        samples: int = 50,
        seed: Optional[int] = None,
        bound: Optional[float] = None,
        frame=None,
        greedy: bool = False,
        candidate_limit: int = 40,
    ) -> List[CampaignRow]:
        """Run one campaign per fault-set size and return the results in order.

        The seed is re-derived per size with :func:`shard_seed`, so each
        size's battery is independent of the others (and of the worker
        count).  ``bound`` selects the streaming-decision
        path per campaign, and ``greedy``/``candidate_limit`` add a greedy
        adversarial probe per size (see :meth:`run_campaign`); ``frame``
        collects one unified record per campaign.
        """
        base = seed if seed is not None else _random.SystemRandom().getrandbits(64)
        # The position enters the derivation so that a repeated size draws an
        # independent battery (doubling a size doubles the information).
        return [
            self.run_campaign(
                size,
                samples=samples,
                seed=shard_seed(base, f"sweep:{position}", size),
                bound=bound,
                frame=frame,
                greedy=greedy,
                candidate_limit=candidate_limit,
            )
            for position, size in enumerate(sizes)
        ]
