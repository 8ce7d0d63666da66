"""Scenario-layer benchmark: bounded-decision campaigns + determinism gate.

Two claims are measured and enforced:

1. **Bounded decisions beat exact diameters.**  On the 200-node battery
   (``circulant:n=200,offsets=1+2`` under the kernel routing) the same
   batteries are evaluated twice, once exactly and once as bounded
   decisions with the Theorem 4 bound, at fault sizes above the guarantee,
   where a tolerance table is the question being asked.  Each campaign is
   planned by ``plan_campaign``, evaluated on the shard executor against
   one prebuilt index and folded by ``fold_campaign``; the index is built
   outside the timed region, so the timings cover evaluation and the fold.
   The decision path must be at least ``TARGET_DECISION_SPEEDUP`` faster
   end-to-end (quick mode only requires it not to be slower).

2. **Scenario campaigns are byte-identical across interpreter runs.**  The
   exact CLI invocation from the acceptance criterion — ``repro campaign
   --scenario ... --bound ... --seed S`` over six graph families — is run in
   two subprocesses with different ``PYTHONHASHSEED`` values; their stdout
   must match byte for byte (this exercises registry parsing, deterministic
   construction, fingerprints and the suite runner end to end).

Results are persisted to ``BENCH_scenarios.json`` at the repo root.

Run directly (no pytest needed)::

    python benchmarks/bench_scenarios.py          # full suite
    python benchmarks/bench_scenarios.py --quick  # CI smoke run
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List

if __package__ in (None, ""):  # allow running as a plain script from anywhere
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.analysis import format_table
from repro.core import RouteIndex, kernel_routing
from repro.faults.engine import DEFAULT_CHUNK_SIZE, evaluate_on_index
from repro.graphs import generators
from repro.scenarios import run_scenario_suite
from repro.scenarios.suite import fold_campaign, plan_campaign

#: Required end-to-end advantage of the decision path on the 200-node battery.
TARGET_DECISION_SPEEDUP = 1.5

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEFAULT_JSON = os.path.join(_REPO_ROOT, "BENCH_scenarios.json")

#: Scenario specs (>= 5 distinct graph families) for the determinism gate.
DETERMINISM_SCENARIOS = [
    "hypercube:d=4/kernel/sizes:1,2",
    "butterfly:d=3/kernel/sizes:1,2",
    "debruijn:base=2,d=4/kernel/sizes:1,2",
    "circulant:n=24,offsets=1+2/kernel/random:p=0.08",
    "flower:t=2,k=9/circular/exhaustive:f=1",
    "kernel-test:t=2/kernel/sizes:1",
]


def _decision_workload(quick: bool):
    """Return ``(name, graph, sizes, samples, bound)`` for the speed gate."""
    if quick:
        return ("circulant-60", generators.circulant_graph(60, [1, 2]), [4, 6], 16, 4)
    return ("circulant-200", generators.circulant_graph(200, [1, 2]), [5, 8], 40, 4)


def _campaign(index: RouteIndex, size: int, samples: int, bound=None):
    """One seeded campaign at ``size`` on ``index`` (a decision row with ``bound``)."""
    tasks = plan_campaign(
        "random",
        size,
        DEFAULT_CHUNK_SIZE,
        bound,
        total=samples,
        seed=13,
        tag=f"size={size}",
    )
    return fold_campaign(
        size, evaluate_on_index(index, tasks), bound, index.eval_backend
    )


def _bench_decisions(quick: bool) -> dict:
    name, graph, sizes, samples, bound = _decision_workload(quick)
    result = kernel_routing(graph)
    index = RouteIndex(graph, result.routing)

    rows = []
    exact_total = 0.0
    decision_total = 0.0
    for size in sizes:
        start = time.perf_counter()
        exact = _campaign(index, size, samples)
        exact_seconds = time.perf_counter() - start

        start = time.perf_counter()
        decision = _campaign(index, size, samples, bound)
        decision_seconds = time.perf_counter() - start

        # Same batteries, same semantics: a violation iff the exact maximum
        # (counting disconnections) exceeds the bound.
        exact_violated = (
            exact.max_diameter > bound or exact.disconnected_fraction > 0
        )
        assert decision.holds == (not exact_violated), (
            f"decision campaign diverged from exact evaluation at size {size}"
        )

        exact_total += exact_seconds
        decision_total += decision_seconds
        rows.append(
            {
                "family": name,
                "faults": size,
                "samples": samples,
                "bound": bound,
                "exact_s": round(exact_seconds, 4),
                "decision_s": round(decision_seconds, 4),
                "speedup": f"{exact_seconds / decision_seconds:.2f}x",
                "violations": decision.violations,
            }
        )

    speedup = exact_total / decision_total if decision_total else float("inf")
    print(
        format_table(
            rows,
            caption=(
                "Bounded-decision campaigns vs exact diameters "
                f"({name}, bound={bound})"
            ),
        )
    )
    print(
        f"\nend-to-end: exact {exact_total:.3f}s, decisions {decision_total:.3f}s "
        f"-> {speedup:.2f}x"
    )
    return {
        "workload": name,
        "sizes": sizes,
        "samples": samples,
        "bound": bound,
        "exact_s": round(exact_total, 4),
        "decision_s": round(decision_total, 4),
        "speedup": round(speedup, 2),
        "per_size": rows,
    }


def _cli_campaign_stdout(hash_seed: str, workers: int) -> str:
    """Run the acceptance-criterion CLI invocation under one hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = os.path.join(_REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    command = [sys.executable, "-m", "repro", "campaign"]
    for spec in DETERMINISM_SCENARIOS:
        command += ["--scenario", spec]
    command += [
        "--bound", "6", "--seed", "7",
        "--samples", "12", "--workers", str(workers),
    ]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    # Exit code 1 means "a bound violation was found" — a legitimate row
    # outcome; anything else is a real failure.
    if completed.returncode not in (0, 1):
        raise RuntimeError(
            f"repro campaign failed (exit {completed.returncode}):\n"
            f"{completed.stderr}"
        )
    return completed.stdout


def _strip_caption(stdout: str) -> str:
    """Drop the table caption (it names the worker count) — rows only."""
    return "\n".join(
        line for line in stdout.splitlines()
        if not line.startswith("Scenario suite (")
    )


def _bench_determinism(quick: bool) -> dict:
    """Byte-compare scenario-campaign rows across hash seeds / worker counts."""
    start = time.perf_counter()
    baseline = _cli_campaign_stdout("1", workers=1)
    other_seed = _cli_campaign_stdout("2", workers=1)
    sharded = _cli_campaign_stdout("3", workers=2 if quick else 4)
    elapsed = time.perf_counter() - start
    identical_across_seeds = baseline == other_seed
    identical_across_workers = _strip_caption(baseline) == _strip_caption(sharded)
    print(
        f"\ndeterminism gate over {len(DETERMINISM_SCENARIOS)} scenarios "
        f"({elapsed:.1f}s): hash seeds "
        f"{'MATCH' if identical_across_seeds else 'DIVERGE'}, worker counts "
        f"{'MATCH' if identical_across_workers else 'DIVERGE'}"
    )
    return {
        "scenarios": DETERMINISM_SCENARIOS,
        "identical_across_hash_seeds": identical_across_seeds,
        "identical_across_worker_counts": identical_across_workers,
        "elapsed_s": round(elapsed, 2),
    }


def _suite_snapshot(quick: bool) -> List[dict]:
    """Persist one small scenario-suite run (rows incl. fingerprints)."""
    samples = 8 if quick else 20
    rows = run_scenario_suite(
        DETERMINISM_SCENARIOS, samples=samples, seed=7, bound=6
    )
    flat = []
    for row in rows:
        entry = row.as_row()
        entry["fingerprint"] = row.fingerprint  # full digest in the JSON
        flat.append(entry)
    print(format_table([row.as_row() for row in rows], caption="Scenario suite snapshot"))
    return flat


def run(quick: bool, json_path: str) -> int:
    decisions = _bench_decisions(quick)
    determinism = _bench_determinism(quick)
    suite_rows = _suite_snapshot(quick)

    payload = {
        "generated_by": "benchmarks/bench_scenarios.py",
        "mode": "quick" if quick else "full",
        "bounded_decisions": decisions,
        "determinism": determinism,
        "suite_rows": suite_rows,
        "targets": {"decision_speedup_target": TARGET_DECISION_SPEEDUP},
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"\nresults written to {json_path}")

    ok = determinism["identical_across_hash_seeds"] and determinism[
        "identical_across_worker_counts"
    ]
    if not ok:
        print("FAIL — scenario campaigns are not reproducible")
        return 1
    if quick:
        if decisions["speedup"] < 1.0:
            print("quick mode: FAIL — decision path slower than exact evaluation")
            return 1
        print("quick mode: determinism gate passed, decision path not slower")
        return 0
    if decisions["speedup"] < TARGET_DECISION_SPEEDUP:
        print(
            f"FAIL — decision speedup {decisions['speedup']:.2f}x below target "
            f"{TARGET_DECISION_SPEEDUP:.1f}x"
        )
        return 1
    print(
        f"PASS — decisions {decisions['speedup']:.2f}x "
        f"(target >= {TARGET_DECISION_SPEEDUP:.1f}x), determinism gates green"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance + relaxed gate (CI smoke run)",
    )
    parser.add_argument(
        "--json",
        default=_DEFAULT_JSON,
        help="path of the machine-readable results file (default: repo-root "
        "BENCH_scenarios.json)",
    )
    args = parser.parse_args(argv)
    return run(args.quick, args.json)


if __name__ == "__main__":
    sys.exit(main())
