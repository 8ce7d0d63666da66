"""End-to-end benchmark of ``repro grid``, ``repro serve`` and ``repro traffic``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-build --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --write-benchmark-json

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` makes a separate traced run and prints the per-layer
breakdown.  Both run the output checks.  Human-readable lines go first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback

import procs
import spec
from probe import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _prepare() -> None:
    """Check the program's sources are present and byte-compile them."""
    package = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no program sources at {package}")
    if not compileall.compile_dir(package, quiet=1):
        raise SystemExit("error: the program's sources do not compile")
    sys.path.insert(0, os.path.join(ROOT, "src"))


def _environment() -> dict:
    import numpy

    from repro.core.route_index import _resolve_eval_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "eval_backend": _resolve_eval_backend(None),
        "serve_transport": "TCP over host loopback (127.0.0.1)",
    }


def _run(workload: str, seed: int, seconds: float, trace: bool, tmp: str) -> dict:
    deadline = procs.Deadline()
    with SpeedProbe(tmp) as probe:
        start = time.perf_counter()
        if workload in ("grid-build", "grid-eval"):
            import grid

            runner = grid.run_traced if trace else grid.run_untraced
            outcome = runner(ROOT, tmp, workload, seed, seconds, deadline, probe)
        elif workload == "serve-mixed":
            import serve

            outcome = serve.run(ROOT, tmp, seed, seconds, trace, deadline, probe)
        else:
            import traffic

            outcome = traffic.run(seed, seconds, trace, deadline, probe)
        slowdown = probe.slowdown(start, time.perf_counter())
    outcome.setdefault("notes", {})["machine slowdown over the run"] = round(slowdown, 3)
    if trace:
        outcome["metrics"]["machine.slowdown"] = slowdown
    return outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-benchmark-json", action="store_true",
        help="regenerate BENCHMARK.json at the repository root and exit",
    )
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(spec.benchmark_json(), handle, indent=2)
            handle.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    _prepare()
    print("environment:", json.dumps(_environment(), sort_keys=True))
    runs_dir = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(runs_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_dir)
    try:
        outcome = _run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    except procs.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(runs_dir)
        except OSError:
            pass  # another run is still using it

    units = spec.units(bool(args.trace))
    metrics = outcome["metrics"]
    missing = sorted(set(units) - set(metrics))
    values = {name: metrics.get(name, 0.0) for name in units}
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}")
    for label, note in outcome.get("notes", {}).items():
        print(f"  {label}: {note}")
    problems = list(outcome["problems"])
    if not args.trace:
        problems += [f"metric {name} not measured" for name in missing]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
