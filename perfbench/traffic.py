"""``run_traffic`` workload: hotspot traffic over limited links with faults.

Set-up builds the ``hypercube:d=7/kernel`` routing; each repeat then runs
one 20k-message hotspot workload through the event engine, in this
process.  The record of every run must be identical, traced or not.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import time
from typing import Dict, List

import procs
from metrics import median
from probe import SpeedProbe
from tracing import Tracer

SCENARIO = "hypercube:d=7/kernel"
MESSAGES = 20000
DURATION = 3000
SETUP_REPS = 3
MIN_REPS = 3
MIN_TRACED_REPS = 2


def _inputs(seed: int, nodes: List[object]):
    from repro.network.links import LinkSpec
    from repro.network.traffic import FaultEvent, Workload

    workload = Workload(
        kind="hotspot", messages=MESSAGES, duration=DURATION,
        hotspots=4, hot_fraction=0.5,
    )
    rng = random.Random(f"traffic-hotspot:{seed}")
    first, second = rng.sample(nodes, 2)
    faults = [
        FaultEvent(DURATION // 5, "fail", first),
        FaultEvent(DURATION * 3 // 10, "fail", second),
        FaultEvent(DURATION // 2, "repair", first),
        FaultEvent(DURATION * 7 // 10, "repair", second),
    ]
    return workload, LinkSpec(capacity=2, buffer=8), faults


def _one(graph, result, canonical, inputs, seed):
    from repro.network.traffic import run_traffic

    workload, link, faults = inputs
    start, cpu = time.perf_counter(), time.process_time()
    outcome = run_traffic(
        graph, result.routing, workload, seed=seed, link=link, faults=faults,
        scenario=canonical, scheme=result.scheme, t=result.t,
        fingerprint=result.fingerprint(),
    )
    return outcome, start, time.perf_counter(), time.process_time() - cpu


def _reps(build, seed, count, seconds, deadline, probe, tracer=None):
    """Repeat the run while ``seconds`` last; times also at nominal speed."""

    graph, result, canonical = build
    inputs = _inputs(seed, list(graph.nodes()))
    runs = []
    start = time.perf_counter()
    while len(runs) < count or time.perf_counter() - start < seconds:
        deadline.check("traffic repeats")
        # Start every repeat from the same heap: no receipts of earlier runs.
        gc.collect()
        covered = tracer.covered if tracer is not None else 0.0
        outcome, begin, end, cpu = _one(graph, result, canonical, inputs, seed)
        if tracer is not None:
            covered = tracer.covered - covered
        slowdown = probe.slowdown(begin, end, [probe.main_cpu])
        runs.append({
            "record": outcome.record(), "wall": end - begin, "cpu": cpu,
            "scaled_wall": (end - begin) / slowdown, "scaled_cpu": cpu / slowdown,
            "covered": covered,
        })
        del outcome
    return runs


def _problems(runs) -> List[str]:
    problems: List[str] = []
    records = {json.dumps(run["record"], sort_keys=True) for run in runs}
    if len(records) != 1:
        problems.append(f"traffic record differs across runs ({len(records)} distinct)")
    record = runs[0]["record"]
    if record["injected"] != MESSAGES:
        problems.append(f"injected {record['injected']} of {MESSAGES} messages")
    if record["delivered"] + record["dropped"] != record["injected"]:
        problems.append("delivered + dropped != injected")
    if record["delivered"] == 0:
        problems.append("no message was delivered")
    return problems


def run(
    seed: int, seconds: float, trace: bool, deadline: procs.Deadline, probe: SpeedProbe
) -> Dict[str, object]:
    """The workload is single-threaded, so it runs pinned to one CPU."""
    with probe.pinned(probe.main_cpu):
        return _run(seed, seconds, trace, deadline, probe)


def _run(seed, seconds, trace, deadline, probe) -> Dict[str, object]:
    from repro.scenarios.spec import parse_scenario

    scenario = parse_scenario(SCENARIO)
    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        graph, result = scenario.build()
        setups.append(probe.scaled(start, time.perf_counter(), [probe.main_cpu]))
    build = (graph, result, scenario.canonical())

    if not trace:
        runs = _reps(build, seed, MIN_REPS, seconds, deadline, probe)
        return {
            "metrics": {
                "setup_s": median(setups),
                "wall_s": median(run["scaled_wall"] for run in runs),
                "cpu_s": median(run["scaled_cpu"] for run in runs),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            "notes": {"measured wall s": [round(run["wall"], 3) for run in runs]},
            "attempted": len(runs),
            "failed": 0,
            "problems": _problems(runs),
        }

    plain = _reps(build, seed, MIN_REPS, seconds / 2, deadline, probe)
    tracer, simulators = _install()
    try:
        traced = _reps(build, seed, MIN_TRACED_REPS, seconds / 2, deadline, probe, tracer)
    finally:
        tracer.restore()
    reps = len(traced)
    total, calls = tracer.total, tracer.calls
    simulator = simulators[-1]
    record = traced[-1]["record"]
    wall = median(run["wall"] for run in traced)
    events_s = total.get("events.run", 0.0) / reps
    plain_wall = median(run["wall"] for run in plain)
    overhead = (
        median(run["scaled_wall"] for run in traced)
        / median(run["scaled_wall"] for run in plain)
    )
    metrics = {
        "traffic.injections_s": total.get("traffic.injections", 0.0) / reps,
        "simulator.init_s": total.get("simulator.init", 0.0) / reps,
        "simulator.plan_s": total.get("simulator.plan", 0.0) / reps,
        "simulator.plans": calls.get("simulator.plan", 0) // reps,
        "events.run_s": events_s,
        "events.processed": simulator.events.processed,
        "events.per_s": simulator.events.processed / events_s,
        "links.max_queue_depth": simulator.max_queue_depth(),
        "links.dropped": simulator.dropped_at_links(),
        "traffic.delivered": record["delivered"],
        "traffic.dropped": record["dropped"],
        "traffic.messages_per_s": MESSAGES / plain_wall,
        "trace.wall_s": wall,
        "traffic-hotspot.unattributed_s": median(run["wall"] - run["covered"] for run in traced),
        "traffic-hotspot.trace_overhead_frac": overhead - 1.0,
    }
    return {
        "metrics": metrics,
        "attempted": len(plain) + reps,
        "failed": 0,
        "problems": _problems(plain + traced),
        "notes": {
            "self seconds by span (per run)": {
                name: round(value / reps, 4) for name, value in sorted(tracer.self_time.items())
            }
        },
    }


def _install():
    from repro.network.events import EventQueue
    from repro.network.simulator import NetworkSimulator
    from repro.network.traffic import Workload

    tracer = Tracer()
    simulators: List[object] = []
    tracer.wrap(Workload, "injections", "traffic.injections")
    tracer.wrap(NetworkSimulator, "__init__", "simulator.init")
    tracer.hook(NetworkSimulator, "__init__", lambda self, *a, **k: simulators.append(self))
    tracer.wrap(NetworkSimulator, "plan_route_sequence", "simulator.plan")
    tracer.wrap(EventQueue, "run", "events.run")
    return tracer, simulators
