"""Command-line interface: build, verify, inspect and export routings.

The CLI wraps the library's main entry points so that the reproduction can be
driven without writing Python:

* ``python -m repro build --graph cycle:24 --strategy auto --output routing.json``
  builds a routing for a generated graph and optionally saves it;
* ``python -m repro verify --graph cycle:24 --strategy circular``
  builds and then checks the construction's ``(d, f)`` guarantee;
* ``python -m repro stats --graph hypercube:4 --strategy kernel``
  prints the routing-table statistics (lengths, stretch, load);
* ``python -m repro simulate --graph cycle:16 --faults 3,7 --messages 5``
  runs the network simulator over the routing with the given failed nodes;
* ``python -m repro traffic 'circulant:n=24,offsets=1+2/kernel' --workload
  hotspot --capacity 2 --buffer 16 --fail 40:3 --store traffic.jsonl``
  drives a traffic workload (uniform pairs, hotspot, or gossip rounds)
  through the event-driven simulator — per-edge link capacities, bounded
  buffers and a timed fail/repair schedule — and reports throughput, mean
  and p99 latency, drop rate and the deepest link queue; several specs
  compare strategies under the identical load, and ``--store`` persists
  one ``kind="traffic"`` row per spec for ``repro report``;
* ``python -m repro campaign --scenario hypercube:d=4/kernel/sizes:1,2,3 --bound 4``
  runs indexed Monte-Carlo fault campaigns through the scenario suite —
  ``--scenario`` may repeat, each spec names a graph family + strategy +
  fault model, ``--bound`` streams pass/fail decisions instead of exact
  diameters, and ``--workers`` shards the work over processes (same seed =>
  same rows for any worker count).  ``--graph G --strategy S --t T --sizes
  X`` is another spelling of the one-point scenario ``G/S/t=T/sizes:X``;
* ``python -m repro grid "hypercube:d=3..5/kernel/t=1..2/sizes:1-3" \
  --store results.jsonl`` expands a scenario *grid* (``lo..hi`` ranges over
  integer graph parameters and ``t``) into a suite, persists one JSONL
  record per campaign into the result store, and — with ``--resume`` —
  skips every campaign the store already records, so an interrupted sweep
  picks up exactly where it was killed;
* ``python -m repro report results.jsonl`` renders the paper-style scaling
  table (rows = family/size, columns = ``t``, cells = ``mean ± worst``
  surviving diameter or pass rate) from a stored run, as markdown or CSV;
  several stores merge into one table (duplicate keys must agree — a
  fingerprint mismatch is a hard error), and a store holding several
  routing strategies — one grid sweeping ``kernel|circular``, or merged
  single-strategy stores — renders the strategy-comparison layout
  (column groups = strategy × ``t``);
* ``python -m repro salvage results.jsonl`` repairs a store torn by a
  writer killed mid-append: the truncated tail moves into the
  ``.quarantine`` sidecar and the sweep resumes from the last complete row;
* ``python -m repro compile --graph cycle:24 --strategy auto --output r.repart``
  builds a routing and lowers it into a compiled serving artifact (flat
  next-hop tables, versioned on the routing fingerprint);
* ``python -m repro serve --artifact r.repart --port 7411``
  serves a compiled artifact over the JSON-lines protocol (asyncio, live
  ``fail``/``restore`` fault updates); with ``--graph`` the server rebuilds
  the construction and **refuses** an artifact whose compiled fingerprint
  does not match it (``--expect-fingerprint`` checks against an explicit
  value instead);
* ``python -m repro graphs`` / ``python -m repro scenarios``
  list the registered graph families and the scenario/grid grammar
  (``repro scenarios --family hyper`` filters the listing).

Graph specifications come from :mod:`repro.graphs.registry` and accept both
positional and named arguments — ``cycle:24``, ``hypercube:d=4``,
``circulant:16,1,2`` (equivalently ``circulant:n=16,offsets=1+2``),
``gnp:n=40,p=0.08,seed=7``, ``flower:t=2,k=5`` and ``two-trees:t=2``.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis import format_table, render_scaling_report
from repro.core import build_routing, verify_construction
from repro.core.statistics import concentrator_load_share, routing_statistics
from repro.core.builder import available_strategies
from repro.exceptions import ReproError
from repro.faults.simulation import (
    CampaignResult,
    CampaignStatus,
    DecisionCampaignResult,
)
from repro.graphs.graph import Graph
from repro.graphs.registry import GRAPH_FAMILIES, parse_graph_spec
from repro.network import (
    DEFAULT_RESOLUTION,
    WORKLOAD_KINDS,
    ChecksumService,
    FaultEvent,
    LinkSpec,
    NetworkSimulator,
    NullService,
    Workload,
    XorEncryptionService,
    run_traffic,
    traffic_manifest,
)
from repro.results import (
    FSYNC_POLICIES,
    ResultStore,
    merge_result_stores,
    result_frame,
)
from repro.runtime import SupervisorPolicy
from repro.scenarios import (
    FAULT_KINDS,
    FaultModel,
    Scenario,
    parse_grid,
    parse_scenario,
    run_scenario_suite,
    suite_manifest,
)
from repro.serialization import construction_to_dict, save_json

__all__ = [
    "GRAPH_FACTORIES",
    "build_parser",
    "main",
    "parse_graph_spec",
]

# ----------------------------------------------------------------------
# Graph specification parsing
# ----------------------------------------------------------------------
# The parsing itself lives in :mod:`repro.graphs.registry` — the single
# registry every layer shares.  ``GRAPH_FACTORIES`` is kept as a
# backwards-compatible view (family name -> argument-token factory) for
# callers that used the CLI's original dict.
GRAPH_FACTORIES: Dict[str, Callable[[List[str]], Graph]] = {
    name: family.build_from_tokens for name, family in GRAPH_FAMILIES.items()
}


def _parse_faults(text: Optional[str], graph: Graph) -> List:
    """Parse a comma-separated fault list, matching integer labels where possible."""
    if not text:
        return []
    faults = []
    labels = {str(node): node for node in graph.nodes()}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token in labels:
            faults.append(labels[token])
        else:
            raise ValueError(f"node {token!r} is not in the graph")
    return faults


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cmd_graphs(_args: argparse.Namespace) -> int:
    rows = [
        {
            "family": name,
            "example": GRAPH_FAMILIES[name].example(),
            "description": GRAPH_FAMILIES[name].description,
        }
        for name in sorted(GRAPH_FAMILIES)
    ]
    print(format_table(rows, caption="Available graph families (--graph name:args)"))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    family_filter = (getattr(args, "family", None) or "").strip().lower()
    names = sorted(GRAPH_FAMILIES)
    if family_filter:
        names = [name for name in names if family_filter in name]
        if not names:
            raise ValueError(
                f"no graph family matches {family_filter!r}; families: "
                f"{sorted(GRAPH_FAMILIES)}"
            )
    # `names` is sorted and unique (the registry is a dict keyed by name),
    # so the listing is too.
    rows = [
        {
            "family": name,
            "graph spec": GRAPH_FAMILIES[name].example(),
            "scenario example": f"{GRAPH_FAMILIES[name].example()}/auto/sizes:1,2,3",
        }
        for name in names
    ]
    caption = "Scenario specs: <graph>/<strategy>/t=<int>/<fault model>"
    if family_filter:
        caption += f" (families matching {family_filter!r})"
    print(format_table(rows, caption=caption))
    print(
        "\nsegments after the graph spec are optional and order-free:\n"
        f"  strategy     one of {available_strategies()}\n"
        "  t=<int>      fault-parameter override (default: connectivity - 1)\n"
        f"  fault model  one of {list(FAULT_KINDS)}:\n"
        "               sizes:1,2,3 | random:p=0.1 | exhaustive:f=2\n"
        "\ngrid specs (repro grid) add inclusive ranges and strategy sets:\n"
        "  name=lo..hi  sweeps a named integer graph parameter or t=\n"
        "  a|b          sweeps routing strategies (e.g. kernel|circular)\n"
        "  sizes:a-b    expands to the size list a,a+1,...,b\n"
        "  e.g. hypercube:d=3..8/kernel|circular/t=1..3/sizes:1-5\n"
        "\nexamples:\n"
        "  repro campaign --scenario hypercube:d=4/kernel/sizes:1,2,3\n"
        "  repro campaign --scenario circulant:n=60,offsets=1+2/kernel/random:p=0.05 \\\n"
        "                 --scenario flower:t=2,k=9/circular/exhaustive:f=2 \\\n"
        "                 --bound 6 --workers 4 --seed 7\n"
        "  repro grid 'hypercube:d=3..5/kernel/t=1..2/sizes:1-3' \\\n"
        "             --samples 20 --store results.jsonl --resume\n"
        "  repro grid 'hypercube:d=3..5/kernel|circular/t=1..2/sizes:1-3' \\\n"
        "             --store s.jsonl --report -\n"
        "  repro report results.jsonl --format markdown\n"
        "  repro report store_kernel.jsonl store_circular.jsonl\n"
        "\nsame seed => byte-identical rows for any --workers value and any\n"
        "PYTHONHASHSEED (the parent broadcasts its built indexes to the pool\n"
        "and verifies routing fingerprints on every row)."
    )
    return 0


def _build(args: argparse.Namespace):
    graph = parse_graph_spec(args.graph)
    result = build_routing(graph, strategy=args.strategy, t=args.t)
    return graph, result


def _cmd_build(args: argparse.Namespace) -> int:
    _graph, result = _build(args)
    print(result.describe())
    if args.output:
        save_json(construction_to_dict(result), args.output)
        print(f"\nrouting written to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _graph, result = _build(args)
    report = verify_construction(result, exhaustive_limit=args.exhaustive_limit)
    print(result.describe())
    print()
    print(report)
    return 0 if report.holds else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    _graph, result = _build(args)
    stats = routing_statistics(result.routing)
    print(result.describe())
    print()
    print(format_table([stats.as_row()], caption="Routing-table statistics"))
    if result.concentrator:
        share = concentrator_load_share(result.routing, result.concentrator)
        print(f"\nconcentrator load share: {share:.0%}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    graph, result = _build(args)
    faults = _parse_faults(args.faults, graph)
    simulator = NetworkSimulator(graph, result.routing, service=XorEncryptionService())
    simulator.fail_nodes(faults)
    alive = [node for node in graph.nodes() if node not in set(faults)]
    rng = random.Random(args.seed)
    rows = []
    for index in range(args.messages):
        origin, destination = rng.sample(alive, 2)
        receipt = simulator.send(origin, destination, f"message-{index}")
        rows.append(
            {
                "from": str(origin),
                "to": str(destination),
                "delivered": "yes" if receipt.delivered else "NO",
                "route_segments": receipt.routes_used,
                "hops": receipt.hops,
            }
        )
    print(result.describe())
    print()
    print(format_table(rows, caption=f"Simulated deliveries with faults {faults}"))
    print(f"\n{simulator.describe()}")
    return 0 if all(row["delivered"] == "yes" for row in rows) else 1


def _parse_sizes(text: str) -> List[int]:
    sizes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        value = int(token)
        if value < 0:
            raise ValueError(f"fault-set size must be non-negative, got {value}")
        sizes.append(value)
    if not sizes:
        raise ValueError("no fault-set sizes given (e.g. --sizes 1,2,3)")
    return sizes


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.graph:
        if args.scenario:
            raise ValueError("--scenario and --graph are mutually exclusive")
        # `--graph G --strategy S --t T --sizes X` is a spelling of the
        # one-point scenario G/S/t=T/sizes:X.
        sizes = _parse_sizes(args.sizes if args.sizes is not None else "1,2,3")
        scenarios = [
            Scenario(
                graph_spec=args.graph,
                strategy=args.strategy,
                t=args.t,
                faults=FaultModel("sizes", sizes=tuple(sizes)),
            )
        ]
        return _run_scenario_campaigns(args, scenarios)
    if not args.scenario:
        raise ValueError("one of --graph or --scenario is required")
    # Scenario specs carry their own strategy / t / fault model; refuse
    # the --graph-mode flags instead of silently ignoring them.
    if args.strategy != "auto":
        raise ValueError(
            "--strategy has no effect with --scenario; put the strategy "
            "in the spec, e.g. hypercube:d=4/kernel"
        )
    if args.t is not None:
        raise ValueError(
            "--t has no effect with --scenario; put it in the spec, "
            "e.g. hypercube:d=4/kernel/t=2"
        )
    if args.sizes is not None:
        raise ValueError(
            "--sizes has no effect with --scenario; put the fault model "
            "in the spec, e.g. hypercube:d=4/sizes:1,2,3"
        )
    return _run_scenario_campaigns(
        args, [parse_scenario(spec) for spec in args.scenario]
    )


def _run_scenario_campaigns(
    args: argparse.Namespace, scenarios: List[Scenario]
) -> int:
    """Run ``repro campaign`` through the suite runner and print its rows.

    Each row's witness follows the table: the worst fault set of an exact
    row, the first violating set of a decision row.
    """
    rows = run_scenario_suite(
        scenarios,
        samples=args.samples,
        seed=args.seed,
        bound=args.bound,
        workers=args.workers,
        chunk_size=args.chunk_size,
        backend=args.eval_backend,
        greedy=args.greedy,
        candidate_limit=args.candidate_limit,
    )
    bound_note = f", bound={args.bound:g}" if args.bound is not None else ""
    print(
        format_table(
            [row.as_row() for row in rows],
            caption=(
                f"Scenario suite ({len(scenarios)} scenarios, "
                f"{args.samples} samples/campaign, workers={args.workers}, "
                f"seed={args.seed}{bound_note})"
            ),
        )
    )
    for row in rows:
        campaign = row.campaign
        if isinstance(campaign, DecisionCampaignResult):
            if campaign.first_violation is not None:
                print(
                    f"first violation at |F|={campaign.fault_size}: "
                    f"{campaign.first_violation}"
                )
        elif isinstance(campaign, CampaignResult) and campaign.worst_fault_set:
            print(f"worst at |F|={campaign.fault_size}: {campaign.worst_fault_set}")
    return _report_failures(rows, args.bound, sys.stdout)


def _report_failures(rows: Sequence, bound: Optional[float], file) -> int:
    """Print quarantined and bound-violating suite rows; return the exit code.

    Quarantined campaigns (retry budget exhausted under the supervisor)
    come back as ``failed`` status rows.  Either kind fails the run, but
    only after the caller has printed its table, so partial sweeps stay
    inspectable.
    """
    failed = [row for row in rows if isinstance(row.campaign, CampaignStatus)]
    for row in failed:
        print(
            f"campaign failed (quarantined): {row.scenario} at "
            f"|F|={row.campaign.fault_size} — {row.campaign.reason}",
            file=file,
        )
    violated = [
        row
        for row in rows
        if bound is not None
        and not isinstance(row.campaign, CampaignStatus)
        and not row.campaign.holds
    ]
    for row in violated:
        print(
            f"bound violated: {row.scenario} at |F|={row.campaign.fault_size} "
            f"({row.campaign.violations} violations)",
            file=file,
        )
    return 1 if failed or violated else 0


def _cmd_grid(args: argparse.Namespace) -> int:
    """Run ``repro grid``: expand grid specs, run the suite, store + report."""
    grids = [parse_grid(spec) for spec in args.spec]
    # Strategy axes sweep constructions across families where not every
    # strategy applies everywhere (e.g. circular on small hypercubes);
    # inapplicable combinations become empty table cells, not errors.
    # Eligibility is per suite *position*, not per scenario string, so a
    # scenario from a single-strategy grid still fails loudly even when a
    # strategy-set grid in the same invocation sweeps the identical
    # scenario — unless --skip-inapplicable opts everything in (the
    # per-strategy halves of a split comparison run).
    scenarios: List = []
    skip_inapplicable: set = set()
    for grid in grids:
        expanded = grid.scenarios()
        if args.skip_inapplicable or len(grid.strategies()) > 1:
            skip_inapplicable.update(
                range(len(scenarios), len(scenarios) + len(expanded))
            )
        scenarios.extend(expanded)
    if not scenarios:
        raise ValueError("the grid expanded to no scenarios")

    run = suite_manifest(
        scenarios,
        args.samples,
        args.seed,
        args.bound,
        args.chunk_size,
        greedy=args.greedy,
        candidate_limit=args.candidate_limit,
    )
    store = None
    if args.store:
        if args.resume:
            store = ResultStore.open(args.store, run, fsync=args.fsync)
        else:
            store = ResultStore.create(args.store, run, fsync=args.fsync)
    elif args.resume:
        raise ValueError("--resume needs --store (the JSONL file to resume)")

    policy = SupervisorPolicy(
        task_timeout=args.task_timeout,
        max_retries=args.retries,
        strict=args.strict,
    )
    skipped: List = []
    try:
        already = len(store) if store is not None else 0
        rows = run_scenario_suite(
            scenarios,
            samples=args.samples,
            seed=args.seed,
            bound=args.bound,
            workers=args.workers,
            chunk_size=args.chunk_size,
            store=store,
            skip_inapplicable=skip_inapplicable,
            skipped=skipped,
            backend=args.eval_backend,
            policy=policy,
            greedy=args.greedy,
            candidate_limit=args.candidate_limit,
        )
    finally:
        if store is not None:
            store.close()

    # With --report - the scaling report owns stdout (pipeable, diffable
    # against goldens, as `repro report --output -`); the human-oriented
    # progress output moves to stderr.
    info = sys.stderr if args.report == "-" else sys.stdout
    for scenario, reason in skipped:
        print(
            f"skipped (strategy not applicable): {scenario.canonical()} — {reason}",
            file=info,
        )
    if skipped:
        print(file=info)

    grid_note = ", ".join(grid.canonical() for grid in grids)
    bound_note = f", bound={args.bound:g}" if args.bound is not None else ""
    resume_note = (
        f", resumed {already} stored rows" if args.resume and already else ""
    )
    print(
        format_table(
            [row.as_row() for row in rows],
            caption=(
                f"Grid sweep [{grid_note}]: {len(scenarios)} scenarios, "
                f"{len(rows)} campaign rows ({args.samples} samples/campaign, "
                f"workers={args.workers}, seed={args.seed}{bound_note}"
                f"{resume_note})"
            ),
        ),
        file=info,
    )
    if args.store:
        print(
            f"\nresult store: {args.store} ({len(rows)} rows recorded)",
            file=info,
        )

    frame = result_frame(row.record() for row in rows)
    report = render_scaling_report(frame, run, fmt=args.format)
    if args.report == "-":
        print(report)
    elif args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"scaling report written to {args.report}")
    else:
        print()
        print(report)

    # The store keeps failed rows, so `repro report` annotates them too.
    return _report_failures(rows, args.bound, info)


def _cmd_compile(args: argparse.Namespace) -> int:
    """Run ``repro compile``: build a routing and write its serving artifact."""
    from repro.serving import compile_routing_artifact

    graph, result = _build(args)
    artifact = compile_routing_artifact(
        graph,
        result.routing,
        scheme=result.scheme,
        backend=args.eval_backend,
    )
    artifact.save(args.output)
    print(result.describe())
    print()
    print(artifact.describe())
    print(f"artifact written to {args.output}")
    print(f"fingerprint: {artifact.fingerprint}")
    return 0


def _load_serve_artifact(args: argparse.Namespace):
    """Resolve ``repro serve`` inputs into a verified artifact."""
    from repro.serving import compile_routing_artifact, load_artifact

    if args.artifact:
        expected = args.expect_fingerprint
        if args.graph:
            # Rebuild the construction and hold the artifact to its
            # fingerprint: serving a stale artifact for a graph would
            # silently answer for a different routing.
            _graph, result = _build(args)
            expected = result.routing.fingerprint()
        return load_artifact(args.artifact, expect_fingerprint=expected)
    if not args.graph:
        raise ValueError("one of --artifact or --graph is required")
    graph, result = _build(args)
    return compile_routing_artifact(
        graph, result.routing, scheme=result.scheme, backend=args.eval_backend
    )


async def _serve_async(args: argparse.Namespace, artifact) -> int:
    import asyncio

    from repro.serving import RoutingTableServer, ServingClient, ServingEngine

    engine = ServingEngine(
        artifact, backend=args.eval_backend, cursor_lru=args.cursor_lru
    )
    server = RoutingTableServer(engine, host=args.host, port=args.port)
    await server.start()
    host, port = server.address
    print(artifact.describe())
    print(f"serving on {host}:{port} (backend: {engine.index.eval_backend})")
    if args.probe:
        # Self-check mode (CI smoke): one client round trip, then exit.
        client = await ServingClient.connect(host, port)
        async with client:
            assert await client.ping() == "pong"
            info = await client.info()
            diameter = await client.diameter()
        await server.stop()
        print(
            f"probe ok: fingerprint {info['fingerprint'][:12]}…, "
            f"fault-free diameter {diameter:g}"
        )
        return 0
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - interactive shutdown
        pass
    finally:
        await server.stop()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run ``repro serve``: expose an artifact over the JSON-lines protocol."""
    import asyncio

    artifact = _load_serve_artifact(args)
    try:
        return asyncio.run(_serve_async(args, artifact))
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        print("\nserver stopped")
        return 0


def _cmd_salvage(args: argparse.Namespace) -> int:
    """Run ``repro salvage``: repair a torn result store in place.

    A writer killed mid-append can leave a truncated final line.  Resuming
    with ``repro grid --resume`` already quarantines it automatically;
    ``repro salvage`` does the same repair explicitly — useful before
    inspecting a store from a crashed machine — and reports what moved
    into the ``<path>.quarantine`` sidecar.
    """
    store, sidecar = ResultStore.salvage(args.path)
    print(f"result store: {args.path} ({len(store)} complete rows)")
    if sidecar is None:
        print("store is clean; nothing quarantined")
    else:
        print(f"torn tail quarantined into {sidecar}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Run ``repro report``: render the scaling table from stored runs.

    Several stores merge into one table — the road to the paper's
    strategy-comparison tables when each strategy (or each machine) swept
    into its own file.  Same key + different fingerprint across stores is a
    hard error: those stores were built against different constructions.
    """
    paths = list(args.stores) + list(args.store or [])
    if not paths:
        raise ValueError(
            "no result store given; pass one or more JSONL paths "
            "(repro report store_a.jsonl store_b.jsonl)"
        )
    if len(paths) == 1:
        store = ResultStore.load(paths[0])
    else:
        store = merge_result_stores(paths)
        groups = store.group_index()
        # Diagnostics go to stderr: stdout may be the report itself
        # (piped CSV/markdown must stay clean).
        print(
            f"merged {len(paths)} stores: {len(store)} rows across "
            f"{len(groups)} (family, n, strategy) groups",
            file=sys.stderr,
        )
    report = render_scaling_report(store.frame, store.run, fmt=args.format)
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"scaling report written to {args.output}")
    else:
        print(report)
    return 0


def _parse_fault_schedule(
    fail_specs: Sequence[str], repair_specs: Sequence[str], graph: Graph
) -> List[FaultEvent]:
    """Parse ``--fail``/``--repair TICK:NODE`` flags into a fault schedule.

    The schedule is sorted by tick (fail before repair on ties) so the
    resulting event order — and therefore the run — is independent of the
    order the flags appeared on the command line.
    """
    labels = {str(node): node for node in graph.nodes()}
    events: List[FaultEvent] = []
    for action, specs in (("fail", fail_specs), ("repair", repair_specs)):
        for spec in specs:
            tick_text, sep, node_text = spec.partition(":")
            if not sep:
                raise ValueError(
                    f"fault schedule entries are TICK:NODE (e.g. --{action} 40:3), "
                    f"got {spec!r}"
                )
            tick = int(tick_text)
            node_text = node_text.strip()
            if node_text not in labels:
                raise ValueError(f"node {node_text!r} is not in the graph")
            events.append(FaultEvent(tick, action, labels[node_text]))
    events.sort(key=lambda event: (event.tick, event.action, str(event.node)))
    return events


_TRAFFIC_SERVICES = {
    "null": NullService,
    "xor": XorEncryptionService,
    "checksum": ChecksumService,
}


def _cmd_traffic(args: argparse.Namespace) -> int:
    """Run ``repro traffic``: drive workloads over routings, report + store."""
    from repro.results.records import scenario_family, scenario_strategy
    from repro.scenarios.spec import DEFAULT_FAULT_MODEL

    workload = Workload(
        kind=args.workload,
        messages=args.messages,
        duration=args.duration,
        hotspots=args.hotspots,
        hot_fraction=args.hot_fraction,
        rounds=args.rounds,
        interval=args.interval,
    )
    if args.capacity is None and args.buffer is not None:
        raise ValueError("--buffer needs --capacity (nothing queues on unlimited links)")
    link = None
    if args.capacity is not None or args.link_latency is not None:
        link = LinkSpec(
            latency=args.link_latency, capacity=args.capacity, buffer=args.buffer
        )
    service = _TRAFFIC_SERVICES[args.service]()
    scenarios = [parse_scenario(spec) for spec in args.spec]
    for scenario in scenarios:
        if scenario.faults != DEFAULT_FAULT_MODEL:
            raise ValueError(
                "traffic runs take timed --fail/--repair schedules; drop the "
                f"fault-model segment from {scenario.canonical()!r}"
            )
    raw_schedule = [f"fail@{spec}" for spec in args.fail] + [
        f"repair@{spec}" for spec in args.repair
    ]
    run = traffic_manifest(
        [scenario.canonical() for scenario in scenarios],
        workload,
        args.seed,
        args.hop_latency,
        args.resolution,
        link,
        args.service,
        faults=sorted(raw_schedule),
    )
    store = None
    if args.store:
        store = ResultStore.create(args.store, run, fsync=args.fsync)
    results = []
    try:
        for scenario in scenarios:
            graph, result = scenario.build()
            faults = _parse_fault_schedule(args.fail, args.repair, graph)
            canonical = scenario.canonical()
            outcome = run_traffic(
                graph,
                result.routing,
                workload,
                seed=args.seed,
                service=service,
                hop_latency=args.hop_latency,
                resolution=args.resolution,
                link=link,
                faults=faults,
                scenario=canonical,
                family=scenario_family(canonical),
                strategy=scenario_strategy(canonical),
                scheme=result.scheme,
                t=result.t,
                fingerprint=result.fingerprint(),
            )
            results.append(outcome)
            if store is not None:
                store.append(
                    f"{canonical}#{workload.canonical()}", outcome.record()
                )
    finally:
        if store is not None:
            store.close()

    link_note = link.describe() if link is not None else "null"
    fault_note = f", {len(raw_schedule)} timed faults" if raw_schedule else ""
    print(
        format_table(
            [outcome.as_row() for outcome in results],
            caption=(
                f"Traffic [{workload.canonical()}]: {len(results)} runs "
                f"(link={link_note}, service={args.service}, seed={args.seed}"
                f"{fault_note})"
            ),
        )
    )
    if args.store:
        print(f"\nresult store: {args.store} ({len(results)} rows recorded)")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant routings for general networks (Peleg & Simons, 1986)",
        epilog=(
            "scenario examples:\n"
            "  repro scenarios --family hyper\n"
            "  repro campaign --scenario hypercube:d=4/kernel/sizes:1,2,3 --seed 7\n"
            "  repro campaign --scenario circulant:n=60,offsets=1+2/kernel/random:p=0.05 \\\n"
            "                 --scenario flower:t=2,k=9/circular/exhaustive:f=2 \\\n"
            "                 --bound 6 --workers 4\n"
            "grid sweeps and stored reports:\n"
            "  repro grid 'hypercube:d=3..5/kernel/t=1..2/sizes:1-3' \\\n"
            "             --samples 20 --store results.jsonl\n"
            "  repro grid 'hypercube:d=3..5/kernel/t=1..2/sizes:1-3' \\\n"
            "             --samples 20 --store results.jsonl --resume\n"
            "  repro report --store results.jsonl --format csv\n"
            "a scenario spec is <graph>/<strategy>/t=<int>/<fault model>; the\n"
            "graph spec is mandatory, the other segments are optional and\n"
            "order-free (see `repro scenarios`).  Grid specs add lo..hi ranges\n"
            "over integer graph parameters and t=, and sizes:a-b shorthand."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, graph_required: bool = True) -> None:
        sub.add_argument(
            "--graph",
            required=graph_required,
            default=None,
            help="graph spec, e.g. cycle:24, hypercube:d=4 or circulant:n=16,offsets=1+2",
        )
        sub.add_argument(
            "--strategy",
            default="auto",
            choices=available_strategies(),
            help="construction to use (default: auto)",
        )
        sub.add_argument("--t", type=int, default=None, help="fault parameter override")

    sub_build = subparsers.add_parser("build", help="build a routing and print its summary")
    add_common(sub_build)
    sub_build.add_argument("--output", help="write the construction to this JSON file")
    sub_build.set_defaults(handler=_cmd_build)

    sub_verify = subparsers.add_parser("verify", help="build a routing and verify its guarantee")
    add_common(sub_verify)
    sub_verify.add_argument("--exhaustive-limit", type=int, default=20000)
    sub_verify.set_defaults(handler=_cmd_verify)

    sub_stats = subparsers.add_parser("stats", help="print routing-table statistics")
    add_common(sub_stats)
    sub_stats.set_defaults(handler=_cmd_stats)

    sub_simulate = subparsers.add_parser("simulate", help="simulate deliveries under faults")
    add_common(sub_simulate)
    sub_simulate.add_argument("--faults", default="", help="comma-separated failed nodes, e.g. 3,7")
    sub_simulate.add_argument("--messages", type=int, default=5)
    sub_simulate.add_argument("--seed", type=int, default=0)
    sub_simulate.set_defaults(handler=_cmd_simulate)

    sub_traffic = subparsers.add_parser(
        "traffic",
        help="drive traffic workloads over routings (throughput, latency, drops)",
    )
    sub_traffic.add_argument(
        "spec",
        nargs="+",
        help=(
            "scenario spec(s) <graph>/<strategy>[/t=N]; several specs run the "
            "identical workload for side-by-side comparison"
        ),
    )
    sub_traffic.add_argument(
        "--workload",
        default="uniform",
        choices=WORKLOAD_KINDS,
        help="workload generator (default: uniform pairs)",
    )
    sub_traffic.add_argument(
        "--messages", type=int, default=200, help="injections (uniform/hotspot)"
    )
    sub_traffic.add_argument(
        "--duration", type=int, default=100, help="injection window in ticks"
    )
    sub_traffic.add_argument(
        "--hotspots", type=int, default=1, help="hot destination count (hotspot)"
    )
    sub_traffic.add_argument(
        "--hot-fraction",
        type=float,
        default=0.8,
        help="fraction of hotspot traffic aimed at the hot set",
    )
    sub_traffic.add_argument(
        "--rounds", type=int, default=4, help="gossip rounds (every node sends once)"
    )
    sub_traffic.add_argument(
        "--interval", type=int, default=10, help="ticks between gossip rounds"
    )
    sub_traffic.add_argument(
        "--hop-latency", type=float, default=0.1, help="time units per link traversal"
    )
    sub_traffic.add_argument(
        "--resolution",
        type=int,
        default=DEFAULT_RESOLUTION,
        help="engine ticks per time unit",
    )
    sub_traffic.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="link departures per tick (default: unlimited — the null model)",
    )
    sub_traffic.add_argument(
        "--buffer",
        type=int,
        default=None,
        help="bounded link queue; arrivals beyond it are dropped",
    )
    sub_traffic.add_argument(
        "--link-latency",
        type=int,
        default=None,
        help="propagation ticks per hop (default: quantised --hop-latency)",
    )
    sub_traffic.add_argument(
        "--service",
        default="null",
        choices=sorted(_TRAFFIC_SERVICES),
        help="endpoint service applied per route segment",
    )
    sub_traffic.add_argument("--seed", type=int, default=0)
    sub_traffic.add_argument(
        "--fail",
        action="append",
        default=[],
        metavar="TICK:NODE",
        help="fail NODE at TICK (repeatable)",
    )
    sub_traffic.add_argument(
        "--repair",
        action="append",
        default=[],
        metavar="TICK:NODE",
        help="repair NODE at TICK (repeatable)",
    )
    sub_traffic.add_argument(
        "--store", default=None, help="persist one traffic row per spec (JSONL)"
    )
    sub_traffic.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default=None,
        help="store fsync policy (default: never, or REPRO_STORE_FSYNC)",
    )
    sub_traffic.set_defaults(handler=_cmd_traffic)

    sub_campaign = subparsers.add_parser(
        "campaign",
        help="run indexed fault campaigns (per fault-set size, or whole scenario suites)",
    )
    add_common(sub_campaign, graph_required=False)
    sub_campaign.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "scenario spec, e.g. hypercube:d=4/kernel/sizes:1,2,3 "
            "(repeatable; mutually exclusive with --graph)"
        ),
    )
    sub_campaign.add_argument(
        "--sizes",
        default=None,
        help="comma-separated fault-set sizes with --graph (default: 1,2,3)",
    )
    sub_campaign.add_argument("--samples", type=int, default=100)
    sub_campaign.add_argument("--seed", type=int, default=0)
    sub_campaign.add_argument(
        "--bound",
        type=float,
        default=None,
        help=(
            "diameter bound: stream bounded pass/fail decisions instead of "
            "exact diameters (exit code 1 on any violation)"
        ),
    )
    sub_campaign.add_argument(
        "--workers", type=int, default=1, help="worker processes for the evaluation"
    )
    sub_campaign.add_argument(
        "--chunk-size", type=int, default=32, help="fault sets per shard"
    )
    sub_campaign.add_argument(
        "--eval-backend",
        choices=["bitset", "numpy", "auto"],
        default=None,
        help=(
            "diameter evaluation backend: 'bitset' (pure Python), 'numpy' "
            "(packed-uint64 batteries; falls back to bitset without numpy) "
            "or 'auto'; default from REPRO_EVAL_BACKEND, values are "
            "identical either way"
        ),
    )
    sub_campaign.add_argument(
        "--greedy",
        action="store_true",
        help=(
            "augment each battery with one adversarially-grown fault set "
            "per size (batched greedy search); the row's worst case then "
            "reflects a sampled and adversarial battery"
        ),
    )
    sub_campaign.add_argument(
        "--candidate-limit",
        type=int,
        default=40,
        metavar="K",
        help=(
            "greedy adversary candidate budget per round (with --greedy; "
            "default: 40)"
        ),
    )
    sub_campaign.set_defaults(handler=_cmd_campaign)

    sub_grid = subparsers.add_parser(
        "grid",
        help="run a scenario-grid sweep (resumable, with stored results)",
        epilog=(
            "examples:\n"
            "  repro grid 'hypercube:d=3..5/kernel/t=1..2/sizes:1-3' --samples 20\n"
            "  repro grid 'hypercube:d=3..5/kernel|circular/t=1..2/sizes:1-3' \\\n"
            "             --store s.jsonl --report -    # strategy comparison\n"
            "  repro grid 'torus:rows=3..5,cols=4/circular' --bound 8 \\\n"
            "             --store results.jsonl --workers 4\n"
            "  repro grid 'hypercube:d=3..5/kernel/t=1..2/sizes:1-3' \\\n"
            "             --store results.jsonl --resume    # skip stored rows\n"
            "a grid spec is a scenario spec plus inclusive integer ranges and\n"
            "strategy sets: name=lo..hi sweeps a named graph parameter or t=,\n"
            "a|b (e.g. kernel|circular) sweeps routing strategies, sizes:a-b\n"
            "expands to the size list a..b.  Strategy-set sweeps skip\n"
            "combinations whose construction does not apply (empty table\n"
            "cells), and the report shows strategy × t column groups with\n"
            "mean ± worst cells.  Every campaign row is appended to --store\n"
            "as soon as it completes, so a killed sweep resumes with\n"
            "--resume without recomputing finished rows."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub_grid.add_argument(
        "spec",
        nargs="+",
        help=(
            "grid spec(s), e.g. hypercube:d=3..5/kernel|circular/t=1..2/"
            "sizes:1-3"
        ),
    )
    sub_grid.add_argument("--samples", type=int, default=50)
    sub_grid.add_argument("--seed", type=int, default=0)
    sub_grid.add_argument(
        "--bound",
        type=float,
        default=None,
        help="diameter bound: stream pass/fail decisions (exit 1 on violation)",
    )
    sub_grid.add_argument(
        "--workers", type=int, default=1, help="worker processes for the evaluation"
    )
    sub_grid.add_argument(
        "--chunk-size", type=int, default=32, help="fault sets per shard"
    )
    sub_grid.add_argument(
        "--eval-backend",
        choices=["bitset", "numpy", "auto"],
        default=None,
        help=(
            "diameter evaluation backend (bitset | numpy | auto); rows are "
            "byte-identical across backends"
        ),
    )
    sub_grid.add_argument(
        "--greedy",
        action="store_true",
        help=(
            "augment every sizes-model campaign with one adversarially-"
            "grown fault set (batched greedy search); recorded in the "
            "store manifest, so greedy and non-greedy stores never mix"
        ),
    )
    sub_grid.add_argument(
        "--candidate-limit",
        type=int,
        default=40,
        metavar="K",
        help=(
            "greedy adversary candidate budget per round (with --greedy; "
            "default: 40)"
        ),
    )
    sub_grid.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="JSONL result store (one record per campaign row + run manifest)",
    )
    sub_grid.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted run: skip campaigns already in --store",
    )
    sub_grid.add_argument(
        "--skip-inapplicable",
        action="store_true",
        help=(
            "drop scenarios whose construction does not apply instead of "
            "failing (always on for strategy-set grids; use it on the "
            "single-strategy halves of a split comparison run)"
        ),
    )
    sub_grid.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget per task, scenario builds included; a task "
            "over budget is retried on a rebuilt pool and quarantined once "
            "--retries is exhausted (default: no timeout; with --workers 1 "
            "tasks run in-process and are never timed out)"
        ),
    )
    sub_grid.add_argument(
        "--retries",
        type=int,
        default=2,
        help=(
            "retry budget per task before its campaign (or, for a scenario "
            "build, every campaign of the scenario) is quarantined as a "
            "failed row; applies with --workers 1 too (default: 2; retries "
            "recompute byte-identical outcomes)"
        ),
    )
    sub_grid.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail fast on the first exhausted task (shard or scenario "
            "build) instead of quarantining its campaigns as failed rows"
        ),
    )
    sub_grid.add_argument(
        "--fsync",
        choices=FSYNC_POLICIES,
        default=None,
        help=(
            "store durability policy: never (default), close (one fsync "
            "at the end) or always (fsync per appended row); also via "
            "REPRO_STORE_FSYNC"
        ),
    )
    sub_grid.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the scaling report here instead of printing it ('-' for stdout)",
    )
    sub_grid.add_argument(
        "--format",
        choices=("markdown", "csv"),
        default="markdown",
        help="scaling-report format (default: markdown)",
    )
    sub_grid.set_defaults(handler=_cmd_grid)

    sub_report = subparsers.add_parser(
        "report",
        help="render the paper-style scaling table from stored result runs",
        epilog=(
            "examples:\n"
            "  repro report results.jsonl\n"
            "  repro report store_kernel.jsonl store_circular.jsonl\n"
            "  repro report results.jsonl --format csv --output table.csv\n"
            "several stores are merged into one table keyed by the stores'\n"
            "content addresses: slices of one sweep (e.g. one store per\n"
            "strategy) recombine exactly, duplicate keys must agree, and a\n"
            "fingerprint mismatch on a shared key is a hard error (the\n"
            "stores were built against different constructions).  Frames\n"
            "holding several strategies render the strategy-comparison\n"
            "layout (column groups = strategy × t, cells = mean ± worst)."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub_report.add_argument(
        "stores",
        nargs="*",
        metavar="PATH",
        help="JSONL result store(s) to read; several paths are merged",
    )
    sub_report.add_argument(
        "--store",
        action="append",
        default=None,
        metavar="PATH",
        help="additional store path (repeatable; kept for compatibility)",
    )
    sub_report.add_argument(
        "--format",
        choices=("markdown", "csv"),
        default="markdown",
        help="output format (default: markdown)",
    )
    sub_report.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the report to this file ('-' for stdout)",
    )
    sub_report.set_defaults(handler=_cmd_report)

    sub_salvage = subparsers.add_parser(
        "salvage",
        help="repair a torn result store (quarantine the truncated tail)",
        epilog=(
            "examples:\n"
            "  repro salvage results.jsonl\n"
            "moves any truncated final line (a writer killed mid-append)\n"
            "into results.jsonl.quarantine and truncates the store back to\n"
            "its last complete row; `repro grid --resume` then continues\n"
            "the sweep from exactly that row."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub_salvage.add_argument("path", metavar="PATH", help="JSONL result store to repair")
    sub_salvage.set_defaults(handler=_cmd_salvage)

    sub_compile = subparsers.add_parser(
        "compile",
        help="compile a routing into a serving artifact (flat next-hop tables)",
        epilog=(
            "examples:\n"
            "  repro compile --graph hypercube:d=5 --strategy kernel \\\n"
            "                --output hyper5.repart\n"
            "the artifact holds flat next-hop/route tables plus the packed\n"
            "evaluation state, versioned on the routing fingerprint; serve it\n"
            "with `repro serve --artifact hyper5.repart`."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common(sub_compile)
    sub_compile.add_argument(
        "--output", required=True, metavar="PATH",
        help="write the compiled artifact to this file",
    )
    sub_compile.add_argument(
        "--eval-backend",
        choices=["bitset", "numpy", "auto"],
        default=None,
        help="evaluation backend recorded in the artifact (default: env/auto)",
    )
    sub_compile.set_defaults(handler=_cmd_compile)

    sub_serve = subparsers.add_parser(
        "serve",
        help="serve a compiled routing artifact (asyncio JSON-lines protocol)",
        epilog=(
            "examples:\n"
            "  repro serve --artifact hyper5.repart --port 7411\n"
            "  repro serve --graph cycle:24 --strategy auto    # compile in-process\n"
            "  repro serve --artifact hyper5.repart --graph hypercube:d=5 \\\n"
            "              --strategy kernel    # verify fingerprint, then serve\n"
            "with both --artifact and --graph the construction is rebuilt and\n"
            "the artifact is refused unless its compiled fingerprint matches;\n"
            "--expect-fingerprint checks against an explicit value instead.\n"
            "--probe starts the server, runs one self-query round trip and\n"
            "exits (CI smoke)."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_common(sub_serve, graph_required=False)
    sub_serve.add_argument(
        "--artifact", default=None, metavar="PATH",
        help="compiled artifact to serve (from `repro compile`)",
    )
    sub_serve.add_argument(
        "--expect-fingerprint", default=None, metavar="SHA256",
        help="refuse the artifact unless its compiled fingerprint equals this",
    )
    sub_serve.add_argument("--host", default="127.0.0.1")
    sub_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0: pick a free port and print it)",
    )
    sub_serve.add_argument(
        "--eval-backend",
        choices=["bitset", "numpy", "auto"],
        default=None,
        help="override the artifact's evaluation backend for this server",
    )
    sub_serve.add_argument(
        "--cursor-lru", type=int, default=128, metavar="N",
        help="hot fault-set cursor cache size (default: 128)",
    )
    sub_serve.add_argument(
        "--probe",
        action="store_true",
        help="start, self-query once (ping/info/diameter), then exit",
    )
    sub_serve.set_defaults(handler=_cmd_serve)

    sub_graphs = subparsers.add_parser("graphs", help="list available graph families")
    sub_graphs.set_defaults(handler=_cmd_graphs)

    sub_scenarios = subparsers.add_parser(
        "scenarios", help="explain the scenario/grid grammar and list example specs"
    )
    sub_scenarios.add_argument(
        "--family",
        default=None,
        help="only list graph families whose name contains this substring",
    )
    sub_scenarios.set_defaults(handler=_cmd_scenarios)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
