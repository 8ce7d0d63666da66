"""Scenario-suite runner: sharded campaigns across whole workload families.

:func:`run_scenario_suite` turns a list of scenarios (canonical strings or
:class:`~repro.scenarios.spec.Scenario` values) into campaign rows — one row
per scenario and fault-set size — evaluating every battery through the
bitset kernel of :class:`~repro.core.route_index.RouteIndex`.

Sharding happens **across scenarios as well as within batteries**: the suite
is flattened into a deterministic list of shard tasks (scenario spec +
battery slice descriptor) and a single process pool drains all of them, so a
suite of many small scenarios parallelises exactly as well as one giant
battery.  Three design rules keep the rows byte-identical for any worker
count and any ``PYTHONHASHSEED``:

1. tasks are a pure function of the scenario list, ``samples``, ``seed`` and
   ``chunk_size`` — never of the worker count — and results are folded in
   task order; battery seeds hash each campaign's *identity* (canonical
   scenario string, occurrence, plan index), not its suite position, so the
   same scenario yields byte-identical rows in every suite that contains it
   (split runs merge losslessly via ``repro report store_a store_b``);
2. workers regenerate their battery slice locally from per-shard SHA-256
   seeds.  Each distinct scenario is built exactly once, by a ``"build"``
   task that runs through the same supervised
   :class:`~repro.faults.engine.ShardExecutor` as the shards (in parallel,
   with timeouts, retries and quarantine) and returns only its slim route
   index and construction metadata; the executor then restarts its pool
   once so the initializer broadcasts the slim indexes (one payload per
   worker process).  The parent builds only graphs, to refuse malformed
   grids before anything runs.  With ``share_index=False`` workers instead
   rebuild graph, routing and index from the canonical scenario string
   alone (the construction pipeline is bit-for-bit deterministic);
3. every worker reports the fingerprint of the routing it used, and the
   parent verifies it against the scenario's build task — under
   ``share_index=False`` this compares two independent constructions, a
   genuine determinism check that fails loudly instead of silently skewing
   rows.

The suite is the library's one campaign front end: ``repro campaign`` (in
both its ``--scenario`` and its ``--graph`` spelling, which names a
one-point scenario) and ``repro grid`` run through it.  This module also
holds the one battery planner, :func:`plan_campaign`, which cuts a
campaign's battery into shard tasks (plus a trailing ``"greedy"`` task when
the battery carries a greedy probe) and refuses batteries that cannot be
planned, and the one fold, :func:`fold_campaign`, which aggregates a
campaign's outcomes into its row and stamps its provenance columns.  The
tolerance scans of :mod:`repro.core.tolerance` plan their in-memory
batteries with :func:`plan_campaign` too, but evaluate them outside the
suite, against one in-memory index.

With ``bound`` given the suite runs *bounded-decision* campaigns: fault sets
are evaluated with an eccentricity cap (``surviving_diameter_at_most``
semantics) and rows report pass/fail statistics instead of exact diameters
— the cheap path for paper-style "does the guarantee hold at scale" tables.

With a ``store`` attached (a :class:`~repro.results.store.ResultStore`
opened against :func:`suite_manifest`), every finished campaign row is
persisted the moment it completes and already-recorded campaigns are
skipped on the next run — the substrate of resumable ``repro grid``
campaigns.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.builder import build_routing
from repro.core.route_index import RouteIndex, _resolve_eval_backend
from repro.exceptions import ReproError
from repro.faults.engine import (
    DEFAULT_CHUNK_SIZE,
    ShardExecutor,
    ShardTask,
    check_fault_size,
    shard_seed,
    workload_key,
)
from repro.faults.models import FaultSet
from repro.faults.simulation import (
    BFS_STRATEGY,
    CampaignResult,
    CampaignStatus,
    DecisionCampaignResult,
    aggregate_decisions,
    aggregate_outcomes,
)
from repro.runtime import FailedTask, SupervisorPolicy, chaos_point
from repro.scenarios.spec import Scenario, as_scenarios, parse_scenario

CampaignRow = Union[CampaignResult, DecisionCampaignResult, CampaignStatus]


@dataclasses.dataclass
class ScenarioRow:
    """One suite row: a scenario, its construction metadata, and a campaign.

    Like the campaign views it wraps, a :class:`ScenarioRow` is a thin view
    over one unified result record (:mod:`repro.results.records`):
    :meth:`record` emits the row the suite persists through
    :class:`~repro.results.store.ResultStore`, and :meth:`from_record`
    reconstructs the view — which is how resumed grid campaigns rehydrate
    their completed rows without recomputing them.
    """

    scenario: str
    scheme: Optional[str]
    nodes: int
    edges: int
    t: int
    fingerprint: Optional[str]
    campaign: CampaignRow

    def as_row(self) -> Dict[str, object]:
        """Return a flat dict for table rendering / JSON persistence."""
        row: Dict[str, object] = {
            "scenario": self.scenario,
            "scheme": self.scheme,
            "n": self.nodes,
            "m": self.edges,
            "t": self.t,
        }
        row.update(self.campaign.as_row())
        if self.fingerprint is not None:
            row["fingerprint"] = self.fingerprint[:12]
        return row

    def record(self) -> Dict[str, object]:
        """Return the unified result record for this row."""
        from repro.results.records import scenario_family, scenario_strategy

        return self.campaign.record(
            source="suite",
            scenario=self.scenario,
            family=scenario_family(self.scenario),
            strategy=scenario_strategy(self.scenario),
            scheme=self.scheme,
            n=self.nodes,
            m=self.edges,
            t=self.t,
            fingerprint=self.fingerprint,
        )

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "ScenarioRow":
        """Rebuild the row (and its campaign view) from a stored record."""
        from repro.results.records import view_from_record

        return cls(
            scenario=record["scenario"],
            scheme=record["scheme"],
            nodes=record["n"],
            edges=record["m"],
            t=record["t"],
            fingerprint=record["fingerprint"],
            campaign=view_from_record(record),
        )


# ----------------------------------------------------------------------
# Scenario builds
# ----------------------------------------------------------------------
class BuiltScenario(NamedTuple):
    """A ``"build"`` task's answer for a construction that applies."""

    index: RouteIndex  # slim: no graph or routing objects
    fingerprint: str
    scheme: str
    t: int
    nodes: int
    edges: int


def build_scenario(task: ShardTask) -> Union[BuiltScenario, Exception]:
    """Run one ``"build"`` task: construct the scenario ``task.spec``.

    Builds the graph, the routing and a :class:`RouteIndex` with the task's
    parent-resolved backend, and returns the slim index with the
    construction metadata — the only part that crosses back to the parent.
    A construction that does not apply to its graph is *returned* as the
    exception it raised: a deterministic answer the supervisor must not
    retry.  Anything else raises and is retried, then quarantined.
    """
    chaos_point("build", task.label)
    scenario = parse_scenario(task.spec)
    graph = scenario.build_graph()
    try:
        # Called through this module's name, so wrappers installed on
        # ``repro.scenarios.suite.build_routing`` see every build.
        result = build_routing(graph, strategy=scenario.strategy, t=scenario.t)
    except (ReproError, ValueError) as exc:
        # ValueError covers substrate-level refusals such as "complete
        # graphs have no separating set" (as build_routing's auto mode).
        return exc
    index = RouteIndex(graph, result.routing, backend=task.backend)
    return BuiltScenario(
        index=index.slim(),
        fingerprint=result.fingerprint(),
        scheme=result.scheme,
        t=result.t,
        nodes=graph.number_of_nodes(),
        edges=graph.number_of_edges(),
    )


# ----------------------------------------------------------------------
# Task expansion
# ----------------------------------------------------------------------
def _check_fault_sizes(scenario: Scenario, nodes: int) -> None:
    """Refuse a fault model asking for more faults than the graph has nodes."""
    model = scenario.faults
    if model.kind == "sizes":
        check_fault_size(scenario.canonical(), max(model.sizes), nodes)
    elif model.kind == "exhaustive":
        check_fault_size(scenario.canonical(), model.max_faults, nodes)


def _campaign_plans(
    scenario: Scenario, samples: int, node_count: Optional[int] = None
) -> List[Tuple[str, int, float, int]]:
    """Return ``(mode, fault_size, p, total)`` per campaign of a scenario.

    ``node_count`` (needed only by exhaustive models, to size the
    enumeration) is taken from the caller when already known; otherwise the
    graph is built deterministically to read it.
    """
    model = scenario.faults
    if model.kind == "sizes":
        return [("random", size, 0.0, samples) for size in model.sizes]
    if model.kind == "random":
        return [("random-p", 0, model.p, samples)]
    n = (
        node_count
        if node_count is not None
        else scenario.build_graph().number_of_nodes()
    )
    return [
        ("exhaustive", size, 0.0, math.comb(n, size))
        for size in range(0, model.max_faults + 1)
    ]


def check_battery(
    chunk_size: int,
    samples: Optional[int] = None,
    candidate_limit: Optional[int] = None,
) -> None:
    """Refuse a battery no campaign can be planned with (``None``: unchecked)."""
    for name, value in (
        ("samples", samples),
        ("chunk_size", chunk_size),
        ("candidate_limit", candidate_limit),
    ):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1")


def plan_campaign(
    mode: str,
    fault_size: int,
    chunk_size: int,
    cap: Optional[float] = None,
    *,
    p: float = 0.0,
    total: int = 0,
    seed: int = 0,
    tag: str = "",
    fault_sets: Optional[Iterable[FaultSet]] = None,
    greedy_seed: Optional[int] = None,
    candidate_limit: int = 40,
    **workload,
) -> Iterator[ShardTask]:
    """Plan one campaign's battery as shard tasks, in battery order.

    The one battery planner of the suite and of the tolerance scans
    (:mod:`repro.core.tolerance`).  A generated battery
    (``"random"``, ``"random-p"``, ``"exhaustive"``) of ``total`` fault sets
    is cut into ``chunk_size`` slices, slice ``i`` seeded by
    ``shard_seed(seed, tag, i)``; an ``"explicit"`` battery chunks
    ``fault_sets`` lazily.  A ``greedy_seed`` appends one ``"greedy"`` task
    that grows an adversarial set of ``fault_size`` with
    ``candidate_limit`` candidates per round.  It comes last so that a
    campaign's tasks stay contiguous for the fold, and its ``start=total``
    keeps its chaos label apart from the slices'.  Every task carries the cap ``cap``
    and the ``workload`` fields (``spec``, ``campaign_key``, ``backend``).
    What :func:`check_battery` refuses raises before any task is planned.
    """
    check_battery(
        chunk_size,
        None if mode == "explicit" else total,
        candidate_limit if greedy_seed is not None else None,
    )
    common = dict(fault_size=fault_size, cap=cap, **workload)
    if mode == "explicit":
        battery = iter(fault_sets)
        blocks = iter(lambda: tuple(itertools.islice(battery, chunk_size)), ())
        tasks: Iterable[ShardTask] = (
            ShardTask(mode=mode, fault_sets=block, **common) for block in blocks
        )
    else:
        tasks = [
            ShardTask(
                mode=mode,
                p=p,
                count=min(chunk_size, total - start),
                start=start,
                seed=shard_seed(seed, tag, shard_index),
                **common,
            )
            for shard_index, start in enumerate(range(0, total, chunk_size))
        ]
    if greedy_seed is None:
        return iter(tasks)
    probe = ShardTask(
        mode="greedy",
        count=1,
        start=total,
        seed=greedy_seed,
        candidate_limit=candidate_limit,
        **common,
    )
    return itertools.chain(tasks, [probe])


def fold_campaign(
    fault_size: int,
    outcomes: Iterable[Tuple[FaultSet, float]],
    bound: Optional[float],
    backend: Optional[str],
    candidate_limit: Optional[int] = None,
) -> CampaignRow:
    """Aggregate one campaign's outcomes into its row (a decision row when
    ``bound`` is given) and stamp its provenance columns: the BFS strategy,
    the eval ``backend`` and its greedy probe's ``candidate_limit``.
    """
    # Called through this module's names, so wrappers installed on
    # ``repro.scenarios.suite.aggregate_*`` see every campaign's fold.
    if bound is not None:
        campaign: CampaignRow = aggregate_decisions(fault_size, bound, outcomes)
    else:
        campaign = aggregate_outcomes(fault_size, outcomes)
    campaign.bfs_strategy = BFS_STRATEGY
    campaign.eval_backend = backend
    campaign.candidate_limit = candidate_limit
    return campaign


def _expand_tasks(
    scenarios: Sequence[Scenario],
    samples: int,
    seed: int,
    chunk_size: int,
    bound: Optional[float],
    node_counts: Optional[Dict[int, int]] = None,
    skip: Iterable[Tuple[int, int]] = (),
    drop: Iterable[int] = (),
    backend: Optional[str] = None,
    greedy: bool = False,
    candidate_limit: int = 40,
) -> Tuple[List[ShardTask], Dict[Tuple[int, int], Tuple[int, Optional[int]]]]:
    """Flatten the suite into shard tasks plus per-campaign metadata.

    ``backend`` optionally carries the parent-resolved eval backend; it is
    stamped onto every task so workers evaluate with exactly the parent's
    resolution.  ``node_counts`` maps scenario positions to known node
    counts (exhaustive plans are sized from them).

    With ``greedy`` set, every ``random`` (sizes-model) campaign of
    positive fault size gains one trailing ``"greedy"`` task: a single
    adversarially-grown fault set of the same size, folded into the same
    campaign row as an extra battery member.  The greedy task rides the
    campaign's identity tag (its seed never depends on suite position), so
    greedy-augmented rows stay byte-identical across splits and resumes.

    Returns ``(tasks, campaigns)`` where ``campaigns`` maps each campaign
    key, in row order, to ``(fault_size, candidate_limit)`` (``None``
    without a greedy probe).  Task seeds hash the campaign's *identity*
    — the canonical scenario string, its occurrence number (repeats of one
    spec in a suite) and the plan index — never the scenario's position in
    the suite.  Repeated scenarios and repeated fault sizes still draw
    independent batteries under one suite seed, while the same scenario
    produces byte-identical rows in *any* suite that contains it: a grid
    split across several runs/stores and merged back together yields
    exactly the rows of the combined run (the substrate of the
    strategy-comparison tables assembled with ``repro report a b``).

    Campaign keys in ``skip`` (already recorded in a resumed result store)
    stay in ``campaigns`` — the row order is that of an uninterrupted run —
    but contribute no shard tasks: their rows are rehydrated from the store
    instead of recomputed.  Scenario indices in ``drop`` (constructions
    that do not apply under ``skip_inapplicable``) contribute neither tasks
    nor campaign rows.  Because task seeds depend only on identities, the
    surviving tasks are exactly the ones the uninterrupted run would have
    evaluated.
    """
    skipped = set(skip)
    dropped = set(drop)
    occurrences: Dict[str, int] = {}
    tasks: List[ShardTask] = []
    campaigns: Dict[Tuple[int, int], Tuple[int, Optional[int]]] = {}
    for scenario_index, scenario in enumerate(scenarios):
        spec = scenario.canonical()
        occurrence = occurrences.get(spec, 0)
        occurrences[spec] = occurrence + 1
        if scenario_index in dropped:
            continue
        node_count = (node_counts or {}).get(scenario_index)
        for plan_index, (mode, fault_size, p, total) in enumerate(
            _campaign_plans(scenario, samples, node_count)
        ):
            campaign_key = (scenario_index, plan_index)
            probe = greedy and mode == "random" and fault_size > 0
            campaigns[campaign_key] = (
                fault_size,
                candidate_limit if probe else None,
            )
            if campaign_key in skipped:
                continue
            tag = (
                f"{spec}@{occurrence}#{plan_index}|{mode}|size={fault_size}"
            )
            tasks.extend(
                plan_campaign(
                    mode,
                    fault_size,
                    chunk_size,
                    bound,
                    p=p,
                    total=total,
                    seed=seed,
                    tag=tag,
                    greedy_seed=(
                        shard_seed(seed, tag + "|greedy", 0) if probe else None
                    ),
                    candidate_limit=candidate_limit,
                    spec=spec,
                    campaign_key=campaign_key,
                    backend=backend,
                )
            )
    return tasks, campaigns


# ----------------------------------------------------------------------
# Store keys and manifests
# ----------------------------------------------------------------------
def campaign_row_keys(scenario: Scenario, occurrence: int = 0) -> List[str]:
    """Return a scenario's store row keys, one per campaign, in plan order.

    The key is a content address — the canonical scenario string plus the
    campaign's plan position — so it is identical across runs, which is what
    lets a resumed store recognise completed rows.  ``occurrence``
    disambiguates repeated scenarios within one suite (each repeat draws an
    independent battery and therefore records distinct rows).
    """
    model = scenario.faults
    if model.kind == "sizes":
        count = len(model.sizes)
    elif model.kind == "random":
        count = 1
    else:
        count = model.max_faults + 1
    spec = scenario.canonical()
    suffix = f"@{occurrence}" if occurrence else ""
    return [f"{spec}#{plan_index}{suffix}" for plan_index in range(count)]


def suite_row_keys(scenarios: Sequence[Scenario]) -> List[List[str]]:
    """Return the row keys of every scenario, disambiguating repeats."""
    occurrences: Dict[str, int] = {}
    keys: List[List[str]] = []
    for scenario in scenarios:
        spec = scenario.canonical()
        occurrence = occurrences.get(spec, 0)
        occurrences[spec] = occurrence + 1
        keys.append(campaign_row_keys(scenario, occurrence))
    return keys


def suite_manifest(
    scenarios: Iterable[Union[str, Scenario]],
    samples: int,
    seed: int,
    bound: Optional[float] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    greedy: bool = False,
    candidate_limit: int = 40,
) -> Dict[str, object]:
    """Return the result-store run manifest for a suite invocation.

    Two invocations produce the same rows iff they share this manifest,
    which is exactly the condition :meth:`~repro.results.store.ResultStore
    .open` enforces before resuming.  The greedy-probe parameters are part
    of the manifest because a greedy-augmented battery folds one extra
    fault set into every sizes-model row — resuming a non-greedy store
    under ``greedy`` (or with a different candidate budget) would change
    rows already recorded.

    Battery parameters no campaign can be planned with are refused here
    (see :func:`check_battery`), before a store is created from the
    manifest.
    """
    check_battery(chunk_size, samples, candidate_limit if greedy else None)
    return {
        "experiment": "scenario-suite",
        "scenarios": [s.canonical() for s in as_scenarios(scenarios)],
        "samples": samples,
        "seed": seed,
        "bound": bound,
        "chunk_size": chunk_size,
        "greedy": greedy,
        "candidate_limit": candidate_limit if greedy else None,
    }


# ----------------------------------------------------------------------
# The suite entry point
# ----------------------------------------------------------------------
def run_scenario_suite(
    scenarios: Iterable[Union[str, Scenario]],
    samples: int = 50,
    seed: int = 0,
    bound: Optional[float] = None,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    store=None,
    share_index: bool = True,
    skip_inapplicable: Union[bool, Iterable[Union[str, int]]] = False,
    skipped: Optional[List[Tuple[Scenario, str]]] = None,
    backend: Optional[str] = None,
    policy: Optional[SupervisorPolicy] = None,
    supervised: bool = True,
    greedy: bool = False,
    candidate_limit: int = 40,
) -> List[ScenarioRow]:
    """Run campaigns for every scenario and return one row per campaign.

    Parameters
    ----------
    scenarios:
        Canonical scenario strings and/or :class:`Scenario` values.
    samples:
        Battery size per campaign for the sampled fault models (``sizes`` /
        ``random:p``); ``exhaustive:f`` ignores it.
    seed:
        Suite seed.  Rows are byte-identical for any worker count and any
        ``PYTHONHASHSEED`` given the same seed.
    bound:
        Optional diameter bound: campaigns then stream bounded *decisions*
        (pass/fail per fault set) instead of exact diameters.
    workers:
        Worker processes.  ``1`` builds and evaluates in-process; larger
        values drain the scenario builds, then the flattened task list — all
        scenarios, all batteries — through one pool, so cross-scenario
        parallelism comes for free.
    chunk_size:
        Fault sets per shard (also the streaming granularity).
    store:
        Optional :class:`~repro.results.store.ResultStore` opened with the
        matching :func:`suite_manifest`.  Every finished campaign row is
        appended to it the moment its last shard folds, and campaigns whose
        keys the store already records are **not recomputed**: their rows
        are rehydrated from the stored records, scenarios with no work left
        are not even rebuilt, and the returned row list is identical to an
        uninterrupted run's.
    share_index:
        Ship each scenario's slim route index, as its build task returned
        it, to the worker pool through the shard executor's initializer
        (one payload per worker process, installed by restarting the pool
        once after the builds) instead of letting every worker rebuild every
        scenario.  Set to ``False`` to restore the rebuild-and-verify
        behaviour: the build pool is kept, and the parent's fingerprint
        comparison checks each worker's rebuild against the build task's
        construction.
    skip_inapplicable:
        Drop scenarios whose construction does not apply to their graph
        (e.g. ``circular`` on a hypercube too small for its neighbourhood
        set) instead of raising.  ``True`` makes every scenario eligible;
        an iterable restricts dropping to its members — canonical scenario
        strings, or suite positions (ints) when the same scenario string
        must be treated differently per occurrence (so one suite can mix
        strategy-axis scenarios, which skip, with explicitly requested
        ones, which still fail loudly).  Dropped
        scenarios contribute no campaign rows; with a store attached each
        of their campaign keys records an ``inapplicable`` status row
        (see ``skipped`` below), and because construction is
        deterministic a resumed run drops exactly the same scenarios, so
        stores stay byte-exact.  This is how
        strategy-axis grids sweep ``kernel|circular`` across families
        where not every strategy applies everywhere.  Graph construction
        itself is never forgiven: a malformed graph axis raises
        regardless.
    backend:
        Eval backend (see :class:`~repro.core.route_index.RouteIndex`).
        Whatever it resolves to — explicit argument, environment variable
        or default — is resolved **once, in the parent** and stamped onto
        every shard task, so workers never consult their own environment:
        a pool whose processes see divergent ``REPRO_*`` variables still
        evaluates every shard with the parent's backend.
    skipped:
        Optional list the suite appends ``(scenario, reason)`` pairs to for
        every scenario dropped under ``skip_inapplicable`` (in suite
        order), so callers can surface what the table will not show.  With
        a store attached the drop is also recorded: every campaign key of a
        dropped scenario gets a ``kind="status"`` row with
        ``disposition="inapplicable"``, so reports can annotate "not
        applicable" (status row) vs "not run" (no row at all) — and a
        resumed run re-drops from the stored rows without rebuilding the
        scenario.
    policy:
        Optional :class:`~repro.runtime.SupervisorPolicy` tuning the
        supervised dispatch: per-task wall-clock timeouts, bounded retry
        with backoff, dead-worker pool rebuilds and in-process degradation
        (timeouts only apply to pooled runs).  It covers scenario builds as
        well as shards.  Tasks are pure functions of their descriptors
        (seeds travel inside them), so retries recompute byte-identical
        outcomes — a recovered run's store equals an undisturbed run's.  A
        campaign whose task exhausts the retry budget is **quarantined**:
        recorded as a ``disposition="failed"`` status row (and returned as
        such) instead of aborting the sweep.  A build that exhausts it
        quarantines every campaign of its scenario the same way, with the
        build error as the reason, the parent's node and edge counts and no
        scheme or fingerprint; a resumed run keeps those rows and never
        rebuilds the scenario.  A construction that does not apply is an
        answer, not a failure: it is never retried.  ``policy.strict``
        restores fail-fast.
    supervised:
        ``False`` restores the bare ``pool.imap`` dispatch of builds and
        shards with no timeouts, retries or recovery — the benchmark
        baseline for the supervisor's clean-path overhead gate.
    greedy, candidate_limit:
        With ``greedy`` set, every sizes-model campaign of positive fault
        size additionally evaluates one adversarially-grown fault set of
        the same size (the batched greedy search of
        :func:`~repro.faults.adversary.greedy_fault_set_from_index`, with
        ``candidate_limit`` candidates per round), folded into the same
        row as an extra battery member — so ``worst_diam`` reflects a
        sampled *and* adversarial battery.  Rows then carry the candidate
        budget in their ``candidate_limit`` column.  The store manifest
        records both parameters: a greedy store and a non-greedy store
        hold different rows and never resume one another.

    Raises
    ------
    ValueError
        If ``samples`` or ``chunk_size`` is below one (or, with ``greedy``,
        ``candidate_limit`` is), if a scenario's fault model asks for more
        faults than its graph has nodes, or if its graph axis is malformed;
        raised while planning, before any task is dispatched or campaign
        row stored.
    RuntimeError
        If a worker's routing fingerprint disagrees with its scenario's
        build (with ``share_index=False``: the construction pipeline went
        nondeterministic), or if a resumed store's rows were recorded
        against a different routing than the one this run builds.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    check_battery(chunk_size, samples, candidate_limit if greedy else None)
    scenario_list = as_scenarios(scenarios)
    if not scenario_list:
        return []

    # Resume bookkeeping: a campaign is complete when its content-addressed
    # key is already recorded in the store.  Stored ``failed`` rows count as
    # completed — a quarantined campaign is never silently retried; delete
    # the store to re-run it.  A stored status row without a fingerprint
    # rules on its whole scenario: ``inapplicable`` (the construction does
    # not apply) or ``failed`` (its build was quarantined; evaluation
    # failures keep the fingerprint of the routing that did build).  The
    # resumed run honours that ruling without rebuilding the scenario (and
    # without consulting ``skip_inapplicable`` again) and completes the keys
    # a crash may have left unwritten.
    keys = suite_row_keys(scenario_list)
    completed: set = set()
    stored_status: Dict[int, Dict[str, object]] = {}
    if store is not None:
        for scenario_index, scenario_keys in enumerate(keys):
            for plan_index, key in enumerate(scenario_keys):
                if key not in store:
                    continue
                record = store.get(key)
                if (
                    record.get("kind") == "status"
                    and record.get("fingerprint") is None
                ):
                    stored_status[scenario_index] = record
                if record.get("disposition") != "inapplicable":
                    completed.add((scenario_index, plan_index))

    if isinstance(skip_inapplicable, bool):
        may_skip = (
            set(range(len(scenario_list))) if skip_inapplicable else set()
        )
    else:
        may_skip = set(skip_inapplicable)

    # Every scenario with work left has its graph built here, in the parent
    # (cheap), so a malformed graph axis or an oversized fault size fails
    # the run before any task is dispatched or row stored.  Graph
    # construction stays outside the applicability guard: a bad graph axis
    # (e.g. cycle:n=2) is a malformed grid and must fail the run, not be
    # mislabelled "strategy not applicable" and dropped.  Scenarios whose
    # campaigns are all stored are skipped outright — resuming a finished
    # scenario costs no construction at all.
    node_counts: Dict[int, int] = {}
    shapes: Dict[int, Tuple[int, int]] = {}
    for scenario_index, scenario in enumerate(scenario_list):
        if scenario_index in stored_status:
            record = stored_status[scenario_index]
            node_counts[scenario_index] = record.get("n") or 0
            continue
        if all(
            (scenario_index, plan_index) in completed
            for plan_index in range(len(keys[scenario_index]))
        ):
            if keys[scenario_index]:
                record = store.get(keys[scenario_index][0])
                node_counts[scenario_index] = record.get("n")
            continue
        graph = scenario.build_graph()
        nodes = graph.number_of_nodes()
        _check_fault_sizes(scenario, nodes)
        shapes[scenario_index] = (nodes, graph.number_of_edges())
        node_counts[scenario_index] = nodes

    # The eval backend is resolved once, here: it travels with every build
    # and shard task and keys the workloads, so slim indexes and worker
    # rebuilds agree with the parent no matter what the workers'
    # environment says.
    resolved_backend = _resolve_eval_backend(backend)

    # One "build" task per distinct scenario still to run (repeats of a spec
    # share it).  Builds drain through the same supervised executor as the
    # shards — in parallel, with timeouts, retries and quarantine — and
    # return only slim indexes, which the executor then installs in its
    # pool.
    build_tasks: Dict[str, ShardTask] = {}
    for scenario_index in shapes:
        spec = scenario_list[scenario_index].canonical()
        if spec not in build_tasks:
            build_tasks[spec] = ShardTask(
                mode="build", spec=spec, backend=resolved_backend
            )

    # scenario index -> (scenario, its build)
    built: Dict[int, Tuple[Scenario, BuiltScenario]] = {}
    dropped: Dict[int, str] = {}
    computed: Dict[Tuple[int, int], ScenarioRow] = {}

    def _record_status(
        scenario_index: int,
        disposition: str,
        reason: str,
        nodes: int,
        edges: int,
    ) -> None:
        """Give every missing campaign key of a scenario a status row.

        Appends happen here, in scenario order and before any campaign
        row is dispatched, so an uninterrupted store and a resumed one
        lay out identical bytes (a resumed run appends only the keys a
        crash left missing, in the same order).  ``failed`` rows are
        also the scenario's returned campaign rows; an ``inapplicable``
        scenario returns none.
        """
        scenario = scenario_list[scenario_index]
        for plan_index, (_mode, fault_size, _p, _total) in enumerate(
            _campaign_plans(scenario, samples, nodes)
        ):
            key = keys[scenario_index][plan_index]
            if store is not None and key in store:
                continue
            row = ScenarioRow(
                scenario=scenario.canonical(),
                scheme=None,
                nodes=nodes,
                edges=edges,
                t=scenario.t,
                fingerprint=None,
                campaign=CampaignStatus(
                    disposition=disposition,
                    reason=reason,
                    fault_size=fault_size,
                ),
            )
            if disposition == "failed":
                computed[(scenario_index, plan_index)] = row
            if store is not None:
                store.append(key, row.record())

    executor = ShardExecutor(
        {},
        workers=workers,
        policy=policy,
        share_index=share_index,
        supervised=supervised,
    )
    try:
        builds = (
            {
                task.spec: result
                for task, result in executor.run(build_tasks.values())
            }
            if build_tasks
            else {}
        )

        for scenario_index, scenario in enumerate(scenario_list):
            if scenario_index in stored_status:
                record = stored_status[scenario_index]
                disposition = record["disposition"]
                reason = record.get("reason") or ""
                nodes, edges = record.get("n") or 0, record.get("m") or 0
            elif scenario_index in shapes:
                outcome = builds[scenario.canonical()]
                nodes, edges = shapes[scenario_index]
                if isinstance(outcome, BuiltScenario):
                    built[scenario_index] = (scenario, outcome)
                    continue
                if isinstance(outcome, FailedTask):
                    # The build exhausted its retry budget: quarantine the
                    # scenario's campaigns as failed rows.
                    disposition, reason = "failed", outcome.reason
                else:
                    if (
                        scenario_index not in may_skip
                        and scenario.canonical() not in may_skip
                    ):
                        raise outcome
                    disposition, reason = "inapplicable", str(outcome)
            else:
                continue
            if disposition == "inapplicable":
                dropped[scenario_index] = reason
                if skipped is not None:
                    skipped.append((scenario, reason))
            _record_status(scenario_index, disposition, reason, nodes, edges)

        # A partially-complete scenario is rebuilt for its remaining
        # campaigns; its stored rows must have been recorded against the
        # same routing.
        if store is not None:
            for scenario_index, plan_index in sorted(completed):
                if scenario_index not in built:
                    continue
                stored = store.get(keys[scenario_index][plan_index])
                reference = built[scenario_index][1].fingerprint
                if stored.get("fingerprint") != reference:
                    raise RuntimeError(
                        f"stored row {keys[scenario_index][plan_index]!r} was "
                        f"recorded against fingerprint "
                        f"{str(stored.get('fingerprint'))[:12]}... but this "
                        f"run built {reference[:12]}...; the store belongs "
                        "to a different construction"
                    )

        executor.install(
            {
                workload_key(scenario.canonical(), resolved_backend): (
                    result.index,
                    result.fingerprint,
                )
                for scenario, result in built.values()
            }
        )
        tasks, campaigns = _expand_tasks(
            scenario_list,
            samples,
            seed,
            chunk_size,
            bound,
            node_counts=node_counts,
            skip=completed | computed.keys(),
            drop=dropped,
            backend=resolved_backend,
            greedy=greedy,
            candidate_limit=candidate_limit,
        )

        # Fold the streamed outcomes per campaign in deterministic task
        # order.  Tasks of one campaign are contiguous, so a campaign is
        # finished the moment the first task of the next one arrives — at
        # which point its row is aggregated and (when a store is attached)
        # persisted, keeping the store valid for resumption at every
        # instant of the run.
        failed_reasons: Dict[Tuple[int, int], str] = {}

        def _finalise(campaign_key: Tuple[int, int], outcomes: List) -> None:
            scenario, result = built[campaign_key[0]]
            fault_size, probe_limit = campaigns[campaign_key]
            # A quarantined campaign is checked first: its collected
            # outcomes (if any shards did finish) are partial and must not
            # feed an aggregate.  The row still carries the real
            # construction metadata — the scenario built fine; only its
            # evaluation failed.
            if campaign_key in failed_reasons:
                campaign: CampaignRow = CampaignStatus(
                    disposition="failed",
                    reason=failed_reasons[campaign_key],
                    fault_size=fault_size,
                )
            else:
                campaign = fold_campaign(
                    fault_size, outcomes, bound, resolved_backend, probe_limit
                )
            row = ScenarioRow(
                scenario=scenario.canonical(),
                scheme=result.scheme,
                nodes=result.nodes,
                edges=result.edges,
                t=result.t,
                fingerprint=result.fingerprint,
                campaign=campaign,
            )
            computed[campaign_key] = row
            if store is not None:
                store.append(keys[campaign_key[0]][campaign_key[1]], row.record())

        current_key: Optional[Tuple[int, int]] = None
        current_outcomes: List = []
        for task, result in executor.run(tasks):
            campaign_key = task.campaign_key
            if isinstance(result, FailedTask):
                # One failed shard quarantines its whole campaign: the
                # aggregate would be incomplete either way.  The first
                # failure's reason is the one recorded.
                failed_reasons.setdefault(campaign_key, result.reason)
                outcomes: List = []
            else:
                fingerprint, outcomes = result
                reference = built[campaign_key[0]][1].fingerprint
                if fingerprint != reference:
                    raise RuntimeError(
                        f"worker rebuilt scenario {task.spec!r} with "
                        f"fingerprint {fingerprint[:12]}... but its build "
                        f"task built {reference[:12]}...; the construction "
                        "pipeline is nondeterministic"
                    )
            if campaign_key != current_key:
                if current_key is not None:
                    _finalise(current_key, current_outcomes)
                current_key = campaign_key
                current_outcomes = []
            current_outcomes.extend(outcomes)
        if current_key is not None:
            _finalise(current_key, current_outcomes)
    finally:
        executor.close()

    # Assemble the rows in campaign order: stored rows for completed
    # campaigns, freshly computed rows for the rest.
    rows: List[ScenarioRow] = []
    for campaign_key in campaigns:
        if campaign_key in completed:
            rows.append(
                ScenarioRow.from_record(
                    store.get(keys[campaign_key[0]][campaign_key[1]])
                )
            )
        else:
            rows.append(computed[campaign_key])
    return rows
