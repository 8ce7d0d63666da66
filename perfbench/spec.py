"""The benchmark's definition: workloads and metrics (``BENCHMARK.json``).

``python3 perfbench/run.py --write-benchmark-json`` regenerates the
repository's ``BENCHMARK.json`` from this module, and every run prints
exactly the metrics named here.
"""

from __future__ import annotations

from typing import Dict, List

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 12

WORKLOADS: List[Dict[str, str]] = [
    {
        "name": "grid-build",
        "why": "repro grid on 4 circulant n=100..103 kernel scenarios: routing "
        "construction (max-flow, separators) is >=90% of wall; eval, dispatch "
        "and the serving wire are bypassed",
    },
    {
        "name": "grid-eval",
        "why": "repro grid hypercube:d=6 t=1..2, 2000 samples + greedy, 2 "
        "workers: diameter eval, greedy probes and ~500 supervised tasks "
        "dominate; construction is ~10%",
    },
    {
        "name": "serve-mixed",
        "why": "repro serve of a hypercube:d=7 kernel artifact over host "
        "loopback, 2 client connections: single, batch, fail/restore flaps and "
        "open-loop rates; no construction timed",
    },
    {
        "name": "traffic-hotspot",
        "why": "run_traffic on hypercube:d=7 kernel, 20k hotspot messages over "
        "capacity/buffer-limited links with timed fail/repair: event engine, "
        "links, route plans; no eval kernel or grid",
    },
]

# Every workload reports every end-to-end metric (its unit of work is
# defined per workload in README.md).
END_TO_END: List[Dict[str, object]] = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.05},
]

_PER_LAYER = [
    # construction
    ("graphs.max_flow_s", "s", "lower"),
    ("graphs.max_flow_calls", "count", "lower"),
    ("graphs.min_separator_s", "s", "lower"),
    ("core.build_routing_s", "s", "lower"),
    ("core.tree_routing_s", "s", "lower"),
    ("graphs.build_graph_s", "s", "lower"),
    # index and evaluation
    ("route_index.build_s", "s", "lower"),
    ("route_index.eval_s", "s", "lower"),
    ("route_index.fault_sets", "count", "higher"),
    ("route_index.fault_sets_per_s", "1/s", "higher"),
    ("faults.greedy_s", "s", "lower"),
    ("faults.greedy_calls", "count", "lower"),
    ("faults.aggregate_s", "s", "lower"),
    # supervised dispatch
    ("runtime.tasks", "count", "lower"),
    ("runtime.retries", "count", "lower"),
    ("runtime.timeouts", "count", "lower"),
    ("runtime.rebuilds", "count", "lower"),
    ("runtime.dispatch_self_s", "s", "lower"),
    # store and report
    ("results.append_s", "s", "lower"),
    ("results.rows", "count", "higher"),
    ("results.bytes", "bytes", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("grid.first_row_s", "s", "lower"),
    # serving: artifact, engine, wire, load generator
    ("artifact.compile_s", "s", "lower"),
    ("artifact.load_s", "s", "lower"),
    ("artifact.bytes", "bytes", "lower"),
    ("engine.single_us", "us", "lower"),
    ("engine.batch_us_per_query", "us", "lower"),
    ("engine.update_us", "us", "lower"),
    ("engine.lru_hits", "count", "higher"),
    ("engine.lru_misses", "count", "lower"),
    ("engine.queries", "count", "higher"),
    ("wire.single_overhead_us", "us", "lower"),
    ("server.cpu_s", "s", "lower"),
    ("server.busy_frac", "ratio", "lower"),
    ("client.cpu_s", "s", "lower"),
    ("loadgen.late_ms", "ms", "lower"),
    ("serve.single_qps", "1/s", "higher"),
    ("serve.single_p50_ms", "ms", "lower"),
    ("serve.single_p99_ms", "ms", "lower"),
    ("serve.single_n", "count", "higher"),
    ("serve.batch_qps", "1/s", "higher"),
    ("serve.update_p50_ms", "ms", "lower"),
    ("serve.update_p99_ms", "ms", "lower"),
    ("serve.update_n", "count", "higher"),
    ("serve.open_p50_ms", "ms", "lower"),
    ("serve.open_p99_ms", "ms", "lower"),
    ("serve.open_n", "count", "higher"),
    ("serve.sustained_qps", "1/s", "higher"),
    # traffic engine
    ("traffic.injections_s", "s", "lower"),
    ("simulator.init_s", "s", "lower"),
    ("simulator.plan_s", "s", "lower"),
    ("simulator.plans", "count", "lower"),
    ("events.run_s", "s", "lower"),
    ("events.processed", "count", "lower"),
    ("events.per_s", "1/s", "higher"),
    ("links.max_queue_depth", "count", "lower"),
    ("links.dropped", "count", "lower"),
    ("traffic.delivered", "count", "higher"),
    ("traffic.dropped", "count", "lower"),
    ("traffic.messages_per_s", "1/s", "higher"),
    # the trace itself, and the machine it ran on
    ("trace.wall_s", "s", "lower"),
    ("machine.slowdown", "ratio", "lower"),
]
_PER_LAYER += [
    (f"{workload['name']}.{suffix}", unit, "lower")
    for workload in WORKLOADS
    for suffix, unit in (("unattributed_s", "s"), ("trace_overhead_frac", "ratio"))
]

PER_LAYER: List[Dict[str, str]] = [
    {"name": name, "unit": unit, "better": better} for name, unit, better in _PER_LAYER
]


def benchmark_json() -> Dict[str, object]:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def units(trace: bool) -> Dict[str, str]:
    return {
        metric["name"]: metric["unit"] for metric in (PER_LAYER if trace else END_TO_END)
    }
