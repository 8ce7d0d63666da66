"""``repro grid`` workloads: the CLI run as a user runs it, watched from outside.

Untraced runs spawn ``python -m repro grid ... --store`` in a fresh
directory and time it from spawn to exit; the first complete row is seen
by polling the store file.  CPU time and peak RSS come from
``getrusage(RUSAGE_CHILDREN)``, which includes the forked pool workers.
The traced run spawns the same command through ``traced_cli.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import procs
from metrics import median, running_cpus
from probe import SpeedProbe
from tracing import merge, merge_spool

GRIDS = {
    "grid-build": (
        "circulant:n=100..103,offsets=1+2+5/kernel/t=1/sizes:2-3",
        ["--samples", "20"],
    ),
    "grid-eval": (
        "hypercube:d=6/kernel/t=1..2/sizes:1-4",
        ["--samples", "2000", "--greedy"],
    ),
}

#: Set-up is short, so it is repeated this often per run (median reported).
SETUP_REPS = 5
#: Grid runs per benchmark run, at least (more while ``--seconds`` lasts).
MIN_REPS = 3
_POLL_S = 0.005

_SETUP_CODE = (
    "import sys\n"
    "from repro.cli import build_parser\n"
    "from repro.scenarios import parse_grid\n"
    "args = build_parser().parse_args(sys.argv[1:])\n"
    "scenarios = [s for spec in args.spec for s in parse_grid(spec).scenarios()]\n"
    "assert scenarios\n"
)


def _grid_args(workload: str, seed: int, workers: int, directory: str) -> List[str]:
    spec, extra = GRIDS[workload]
    return [
        "grid", spec, *extra,
        "--seed", str(seed),
        "--workers", str(workers),
        "--store", os.path.join(directory, "store.jsonl"),
        "--report", os.path.join(directory, "report.md"),
    ]


def measure_setup(
    root: str, workload: str, deadline: procs.Deadline, probe: SpeedProbe
) -> float:
    """CLI start-up through grid expansion, in a fresh interpreter (median)."""
    argv = ["-c", _SETUP_CODE, *_grid_args(workload, 0, 2, "unused")]
    times = []
    with probe.pinned(probe.main_cpu):
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            procs.run(argv, root, deadline, "grid set-up")
            times.append(probe.scaled(start, time.perf_counter(), [probe.main_cpu]))
    return median(times)


def _children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _first_row_seen(store: str, seen: Dict[str, int]) -> bool:
    """Has the store a complete row yet (manifest line + one more line)?"""
    try:
        size = os.path.getsize(store)
    except OSError:
        return False
    if size == seen.get("size"):
        return False
    seen["size"] = size
    with open(store, "rb") as handle:
        return handle.read().count(b"\n") >= 2


def run_grid(
    root: str, directory: str, argv: List[str], deadline: procs.Deadline
) -> Dict[str, float]:
    """Run one grid process to completion; time it and its first row."""
    os.makedirs(directory)
    store = os.path.join(directory, "store.jsonl")
    cpu_before, _ = _children_usage()
    start = time.perf_counter()
    first_row: Optional[float] = None
    seen: Dict[str, int] = {}
    track: List[Tuple[float, List[int]]] = []
    proc = procs.spawn(argv, root, stderr=subprocess.PIPE)
    try:
        while proc.poll() is None:
            if deadline.remaining() <= 0:
                raise procs.BenchError("grid run timed out")
            if first_row is None and _first_row_seen(store, seen):
                first_row = time.perf_counter() - start
            track.append((time.perf_counter(), running_cpus(proc.pid)))
            time.sleep(_POLL_S)
        wall = time.perf_counter() - start
        track.append((start + wall, []))
        err = proc.stderr.read().decode("utf-8", "replace")
    finally:
        procs.reap(proc)
    if proc.returncode != 0 and not os.path.exists(store):
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise procs.BenchError(f"grid exited {proc.returncode}: {tail}")
    if first_row is None:  # the last poll raced the exit
        first_row = wall
    cpu_after, rss = _children_usage()
    return {
        "start": start, "wall": wall, "first_row": first_row,
        "cpu": cpu_after - cpu_before, "rss": rss, "track": track,
        "exit": proc.returncode,
    }


def check_store(path: str) -> Dict[str, object]:
    """Hash the store and check its rows.

    Returns the sha256, the row count, the failed (quarantined) row count
    and a list of problems: a row with an unknown status, or a row whose
    fault count is within the routing's tolerance ``t`` but whose worst
    surviving diameter is unbounded (the construction's guarantee broke).
    """
    with open(path, "rb") as handle:
        data = handle.read()
    lines = data.decode("utf-8").splitlines()
    manifest = json.loads(lines[0])
    rows = [json.loads(line)["record"] for line in lines[1:]]
    problems: List[str] = []
    failed = sum(1 for row in rows if row.get("disposition") == "failed")
    for row in rows:
        if row.get("disposition") not in (None, "failed"):
            problems.append(f"{row['scenario']}: disposition {row['disposition']}")
        elif row.get("disposition") is None and row["faults"] <= row["t"]:
            if not math.isfinite(row["worst_diam"]):
                problems.append(
                    f"{row['scenario']} |F|={row['faults']}: disconnected within t"
                )
    if manifest.get("kind") != "manifest" or not rows:
        problems.append("store has no manifest or no rows")
    return {
        "sha": hashlib.sha256(data).hexdigest(),
        "rows": len(rows),
        "failed": failed,
        "problems": problems,
    }


def _run_and_check(
    root: str, directory: str, argv: List[str], deadline: procs.Deadline
) -> Dict[str, object]:
    outcome = run_grid(root, directory, argv, deadline)
    outcome.update(check_store(os.path.join(directory, "store.jsonl")))
    return outcome


def _reps(
    root: str, tmp: str, workload: str, seed: int, seconds: float,
    deadline: procs.Deadline, probe: SpeedProbe, label: str,
) -> List[Dict[str, object]]:
    """Untraced grid runs (``--workers 2``) while ``seconds`` last.

    Each run also gets its wall and CPU time at nominal machine speed.
    """
    runs: List[Dict[str, object]] = []
    start = time.perf_counter()
    while len(runs) < MIN_REPS or time.perf_counter() - start < seconds:
        if runs and deadline.remaining() < 3 * runs[-1]["wall"] + 30:
            break
        directory = os.path.join(tmp, f"{label}-{len(runs)}")
        argv = ["-m", "repro", *_grid_args(workload, seed, 2, directory)]
        outcome = _run_and_check(root, directory, argv, deadline)
        slowdown = probe.track_slowdown(outcome.pop("track"))
        outcome["scaled_wall"] = outcome["wall"] / slowdown
        outcome["scaled_cpu"] = outcome["cpu"] / slowdown
        shutil.rmtree(directory)
        runs.append(outcome)
    return runs


def _checks(runs: List[Dict[str, object]]) -> List[str]:
    """Every store must be byte-identical: across repeats, with tracing on
    and off, and with one or two workers."""
    problems: List[str] = []
    shas = {run["sha"] for run in runs}
    if len(shas) != 1:
        problems.append(f"store differs between runs ({len(shas)} distinct)")
    for run in runs:
        problems.extend(run["problems"])
        if run["exit"] != 0:
            problems.append(f"grid exited {run['exit']}")
    return problems


def traced_cli_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


def read_parent_spans(spool: str) -> Dict[str, object]:
    with open(os.path.join(spool, "parent.json"), encoding="utf-8") as handle:
        return json.load(handle)


def construction_metrics(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    total, calls = spans["total"], spans["calls"]
    return {
        "graphs.max_flow_s": total.get("graphs.max_flow", 0.0),
        "graphs.max_flow_calls": calls.get("graphs.max_flow", 0),
        "graphs.min_separator_s": total.get("graphs.min_separator", 0.0),
        "core.build_routing_s": total.get("core.build_routing", 0.0),
        "core.tree_routing_s": total.get("core.tree_routing", 0.0),
        "graphs.build_graph_s": total.get("graphs.build_graph", 0.0),
    }


def run_untraced(
    root: str, tmp: str, workload: str, seed: int, seconds: float,
    deadline: procs.Deadline, probe: SpeedProbe,
) -> Dict[str, object]:
    setup = measure_setup(root, workload, deadline, probe)
    runs = _reps(root, tmp, workload, seed, seconds, deadline, probe, "rep")
    return {
        "metrics": {
            "setup_s": setup,
            "wall_s": median(run["scaled_wall"] for run in runs),
            "cpu_s": median(run["scaled_cpu"] for run in runs),
            "peak_rss_mb": max(run["rss"] for run in runs),
        },
        "notes": {
            "measured wall s": [round(run["wall"], 3) for run in runs],
            "measured cpu s": [round(run["cpu"], 3) for run in runs],
        },
        "attempted": sum(run["rows"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "problems": _checks(runs),
    }


def run_traced(
    root: str, tmp: str, workload: str, seed: int, seconds: float,
    deadline: procs.Deadline, probe: SpeedProbe,
) -> Dict[str, object]:
    """Untraced repeats, one traced run and one ``--workers 1`` run.

    Layer times are as measured; the overhead compares speed-scaled walls.
    """
    runs = _reps(root, tmp, workload, seed, seconds, deadline, probe, "rep")

    spool = os.path.join(tmp, "spool")
    os.makedirs(spool)
    directory = os.path.join(tmp, "traced")
    argv = [traced_cli_path(), spool, "--", *_grid_args(workload, seed, 2, directory)]
    traced = _run_and_check(root, directory, argv, deadline)
    store_bytes = os.path.getsize(os.path.join(directory, "store.jsonl"))
    parent = read_parent_spans(spool)
    workers, worker_count = merge_spool(spool)
    spans = merge([parent, workers])

    directory = os.path.join(tmp, "serial")
    argv = ["-m", "repro", *_grid_args(workload, seed, 1, directory)]
    serial = _run_and_check(root, directory, argv, deadline)
    everything = runs + [traced, serial]

    total, calls, items = spans["total"], spans["calls"], spans["items"]
    self_time = spans["self"]
    stats = parent["supervisor"]
    eval_s = total.get("route_index.eval", 0.0)
    wall = traced["wall"]
    scaled_wall = wall / probe.track_slowdown(traced["track"])
    untraced_wall = median(run["scaled_wall"] for run in runs)
    layers = construction_metrics(spans)
    layers.update({
        "route_index.build_s": total.get("route_index.build", 0.0),
        "route_index.eval_s": eval_s,
        "route_index.fault_sets": items.get("route_index.eval", 0),
        "route_index.fault_sets_per_s": (
            items.get("route_index.eval", 0) / eval_s if eval_s else 0.0
        ),
        "faults.greedy_s": total.get("faults.greedy", 0.0),
        "faults.greedy_calls": calls.get("faults.greedy", 0),
        "faults.aggregate_s": total.get("faults.aggregate", 0.0),
        "runtime.tasks": stats.get("tasks", 0),
        "runtime.retries": stats.get("retries", 0),
        "runtime.timeouts": stats.get("timeouts", 0),
        "runtime.rebuilds": stats.get("rebuilds", 0),
        "runtime.dispatch_self_s": self_time.get("runtime.dispatch", 0.0),
        "results.append_s": total.get("results.append", 0.0),
        "results.rows": calls.get("results.append", 0),
        "results.bytes": store_bytes,
        "analysis.report_s": total.get("analysis.report", 0.0),
        "grid.first_row_s": median(run["first_row"] for run in runs),
        "trace.wall_s": wall,
        f"{workload}.unattributed_s": wall - parent["covered"],
        f"{workload}.trace_overhead_frac": scaled_wall / untraced_wall - 1.0,
    })
    return {
        "metrics": layers,
        "attempted": sum(run["rows"] for run in everything),
        "failed": sum(run["failed"] for run in everything),
        "problems": _checks(everything),
        "notes": {
            "worker span files": worker_count,
            "self seconds by span": {k: round(v, 4) for k, v in sorted(self_time.items())},
        },
    }
