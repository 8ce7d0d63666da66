"""``repro serve`` workload: a compiled artifact served over host loopback.

Set-up compiles the artifact with ``repro compile`` and starts
``repro serve --artifact`` on port 0, reading the bound address from the
server's unbuffered stdout.  One load process then drives the server
through ``ServingClient`` over two connections:

* closed-loop *rounds* of fixed work — single ``next_hop`` queries on both
  connections, then ``batch_next_hop`` requests of 1024 pairs, then
  fail → diameter → restore flaps over a small node set on one connection
  while the other keeps reading;
* open-loop single queries at a few fixed offered rates, each timed from
  when it was due.

Every reply is checked for success; a sample of answers is compared with
an in-process ``ServingEngine`` at the reply's generation, and the final
``stats`` counters with their expected values.
"""

from __future__ import annotations

import asyncio
import os
import random
import select
import subprocess
import time
from typing import Dict, List, Optional, Tuple

import procs
from probe import SpeedProbe
from grid import construction_metrics, read_parent_spans, traced_cli_path
from metrics import (
    backlog_grows,
    median,
    open_loop_latencies,
    proc_cpu_s,
    proc_peak_rss_mb,
    supported_percentile,
)

GRAPH = "hypercube:d=7"
STRATEGY = "kernel"
SETUP_REPS = 3
SINGLES_PER_CONN = 400
BATCHES_PER_CONN = 2
BATCH_PAIRS = 1024
FLAPS_PER_ROUND = 70
FLAP_NODES = 8
MIN_ROUNDS = 6
OPEN_RATES = (1500, 2000, 2500, 3000, 3500)
OPEN_REQUESTS = 1100
OPEN_REFERENCE_RATE = 2000
P99_LIMIT_MS = 2.0
SPIN_S = 0.0015
#: Every this-many single answers is checked against the in-process engine.
CHECK_EVERY = 10


# ----------------------------------------------------------------------
# Set-up: compile + server ready
# ----------------------------------------------------------------------
def compile_artifact(root: str, path: str, deadline: procs.Deadline) -> None:
    argv = ["-m", "repro", "compile", "--graph", GRAPH, "--strategy", STRATEGY,
            "--output", path]
    procs.run(argv, root, deadline, "repro compile")


def start_server(
    root: str, artifact: str, deadline: procs.Deadline
) -> Tuple[subprocess.Popen, str, int]:
    """Spawn ``repro serve`` on port 0; returns it once it prints its address."""
    proc = procs.spawn(
        ["-u", "-m", "repro", "serve", "--artifact", artifact, "--port", "0"],
        root, stdout=subprocess.PIPE,
    )
    output = b""
    try:
        while b"\nserving on " not in b"\n" + output or not output.endswith(b"\n"):
            if proc.poll() is not None:
                raise procs.BenchError(f"repro serve exited {proc.returncode}")
            if deadline.remaining() <= 0:
                raise procs.BenchError("repro serve did not become ready")
            ready, _, _ = select.select([proc.stdout], [], [], 0.5)
            if ready:
                output += os.read(proc.stdout.fileno(), 65536)
        for line in output.decode("utf-8", "replace").splitlines():
            if line.startswith("serving on "):
                host, port = line.split()[2].rsplit(":", 1)
                return proc, host, int(port)
        raise procs.BenchError("repro serve printed no address")
    except BaseException:
        procs.reap(proc)
        raise


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
class Load:
    """Request streams of one run, and everything observed while sending."""

    def __init__(self, seed: int, nodes: List[object]) -> None:
        self.rng = random.Random(f"serve-mixed:{seed}")
        self.nodes = nodes
        self.flap_nodes = self.rng.sample(nodes, FLAP_NODES)
        self.single_lat: List[float] = []
        self.update_lat: List[float] = []
        self.round_spans: List[Tuple[float, float]] = []
        self.phase_walls: Dict[str, float] = {"single": 0.0, "batch": 0.0}
        self.phase_work: Dict[str, int] = {"single": 0, "batch": 0}
        self.intervals: List[Tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        # Replayed against the in-process engine and checked afterwards.
        self.singles: List[Tuple[object, object]] = []
        self.batches: List[List[Tuple[object, object]]] = []
        self.flaps: List[object] = []
        self.checks: List[Tuple[str, object, object, int]] = []
        self.diameters = 0
        self.open: Dict[int, Dict[str, object]] = {}
        self.phase_cpu: Dict[str, float] = {}

    def pair(self) -> Tuple[object, object]:
        return self.rng.choice(self.nodes), self.rng.choice(self.nodes)

    async def _call(self, call, *args):
        """Send one request; an error reply counts as a failed request."""
        from repro.exceptions import ServingError

        self.attempted += 1
        try:
            return await call(*args)
        except ServingError:
            self.failed += 1
            return None

    async def _timed(self, call, *args):
        start = time.perf_counter()
        result = await self._call(call, *args)
        end = time.perf_counter()
        self.intervals.append((start, end))
        return result, end - start

    async def _singles(self, client, pairs, stop: Optional[asyncio.Event] = None):
        for index, (source, target) in enumerate(pairs):
            if stop is not None and stop.is_set():
                break
            hop, elapsed = await self._timed(client.next_hop, source, target)
            self.single_lat.append(elapsed)
            self.singles.append((source, target))
            if len(self.singles) % CHECK_EVERY == 0:
                self.checks.append(("next_hop", (source, target), hop, client.last_generation))

    async def _batches(self, client, batches):
        for pairs in batches:
            hops, _elapsed = await self._timed(client.batch_next_hop, pairs)
            self.batches.append(pairs)
            self.checks.append(("batch", pairs, hops, client.last_generation))

    async def _flaps(self, client, count: int, stop: asyncio.Event):
        try:
            for _ in range(count):
                node = self.rng.choice(self.flap_nodes)
                _gen, elapsed = await self._timed(client.fail, node)
                self.update_lat.append(elapsed)
                diameter, _ = await self._timed(client.diameter)
                self.diameters += 1
                self.checks.append(("diameter", node, diameter, client.last_generation))
                _gen, elapsed = await self._timed(client.restore, node)
                self.update_lat.append(elapsed)
                self.flaps.append(node)
        finally:
            stop.set()

    async def round(self, clients, sample_cpu=None) -> None:
        a, b = clients
        singles = [[self.pair() for _ in range(SINGLES_PER_CONN)] for _ in clients]
        batches = [
            [[self.pair() for _ in range(BATCH_PAIRS)] for _ in range(BATCHES_PER_CONN)]
            for _ in clients
        ]
        readers = [self.pair() for _ in range(20 * FLAPS_PER_ROUND)]
        start = time.perf_counter()
        mark = sample_cpu and sample_cpu("single")
        await asyncio.gather(*(self._singles(c, p) for c, p in zip(clients, singles)))
        batch_start = time.perf_counter()
        self.phase_walls["single"] += batch_start - start
        self.phase_work["single"] += SINGLES_PER_CONN * len(clients)
        mark = sample_cpu and sample_cpu("batch", mark)
        await asyncio.gather(*(self._batches(c, p) for c, p in zip(clients, batches)))
        self.phase_walls["batch"] += time.perf_counter() - batch_start
        self.phase_work["batch"] += BATCH_PAIRS * BATCHES_PER_CONN * len(clients)
        mark = sample_cpu and sample_cpu("update", mark)
        stop = asyncio.Event()
        await asyncio.gather(self._flaps(a, FLAPS_PER_ROUND, stop), self._singles(b, readers, stop))
        sample_cpu and sample_cpu(None, mark)
        self.round_spans.append((start, time.perf_counter()))

    async def open_loop(self, clients, rate: int) -> None:
        """``OPEN_REQUESTS`` single queries due every ``1/rate`` seconds."""
        pairs = [self.pair() for _ in range(OPEN_REQUESTS)]
        origin = time.perf_counter() + 0.01
        due = [origin + index / rate for index in range(OPEN_REQUESTS)]
        records: List[Optional[Tuple[float, float, float, float]]] = [None] * OPEN_REQUESTS
        cursor = iter(range(OPEN_REQUESTS))

        async def sender(client):
            ready = time.perf_counter()
            for index in cursor:
                # The event loop's timers fire up to a millisecond late, so
                # sleep to just short of the due time and yield until it.
                delay = due[index] - time.perf_counter()
                if delay > SPIN_S:
                    await asyncio.sleep(delay - SPIN_S)
                while time.perf_counter() < due[index]:
                    await asyncio.sleep(0)
                sent = time.perf_counter()
                await self._call(client.next_hop, *pairs[index])
                done = time.perf_counter()
                records[index] = (due[index], ready, sent, done)
                ready = done

        await asyncio.gather(*(sender(c) for c in clients))
        latencies, lateness = open_loop_latencies(records)
        self.open[rate] = {"latencies": latencies, "lateness": lateness}


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


async def drive(
    host: str, port: int, load: Load, seconds: float, server_pid: int,
    trace: bool,
) -> Dict[str, object]:
    from repro.serving import ServingClient

    clients = [await ServingClient.connect(host, port) for _ in range(2)]
    try:
        info = await clients[0].info()
        cpu0, client0 = proc_cpu_s(server_pid), time.process_time()
        start = time.perf_counter()
        traced_spans: List[Tuple[float, float]] = []
        rounds_budget = max(1.0, seconds - 3.0)
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start < rounds_budget:
            # With tracing, every other round samples the server's CPU per phase.
            sample = None
            if trace and rounds % 2 == 1:
                sample = _cpu_sampler(server_pid, load.phase_cpu)
            await load.round(clients, sample)
            if sample is not None:
                traced_spans.append(load.round_spans.pop())
            rounds += 1
        rounds_end = time.perf_counter()
        rounds_wall = rounds_end - start
        cpu_rounds = proc_cpu_s(server_pid) - cpu0
        client_rounds = time.process_time() - client0
        covered = _covered(load.intervals)
        for rate in OPEN_RATES:
            await load.open_loop(clients, rate)
        cpu_total = proc_cpu_s(server_pid) - cpu0
        client_total = time.process_time() - client0
        load_wall = time.perf_counter() - start
        stats = await clients[0].stats()
    finally:
        for client in clients:
            await client.close()
    return {
        "info": info,
        "stats": stats,
        "rounds": rounds,
        "rounds_span": (start, rounds_end),
        "traced_spans": traced_spans,
        "cpu_per_round": (cpu_rounds + client_rounds) / rounds,
        "server_cpu": cpu_total,
        "client_cpu": client_total,
        "load_wall": load_wall,
        "unattributed": rounds_wall - covered,
    }


def _cpu_sampler(pid: int, totals: Dict[str, float]):
    """Per-phase server CPU: call with the next phase name and the last mark."""
    def sample(phase, mark=None):
        now = proc_cpu_s(pid)
        if mark is not None:
            name, before = mark
            totals[name] = totals.get(name, 0.0) + now - before
        return (phase, now) if phase else None
    return sample


# ----------------------------------------------------------------------
# Checks and the in-process replay
# ----------------------------------------------------------------------
def check_answers(engine, load: Load, stats: Dict[str, object], info) -> List[str]:
    problems: List[str] = []
    if info["fingerprint"] != engine.artifact.fingerprint:
        problems.append("served fingerprint differs from the compiled artifact")
    views: Dict[int, object] = {}
    flap_nodes = load.flaps

    def view_at(generation: int):
        # Generations advance by one per fail and per restore, all made by
        # one connection: odd generations hold exactly one failed node.
        if generation not in views:
            faults = [] if generation % 2 == 0 else [flap_nodes[(generation - 1) // 2]]
            engine.set_faults(faults)
            views[generation] = engine.view()
        return views[generation]

    for kind, question, answer, generation in load.checks:
        if generation is None or generation > 2 * len(flap_nodes):
            problems.append(f"{kind} answered at unknown generation {generation}")
            continue
        view = view_at(generation)
        if kind == "next_hop":
            expected = view.next_hop(*question)
        elif kind == "batch":
            expected = view.batch_next_hop(question)
        else:
            expected = view.surviving_diameter()
            if generation % 2 == 0 or flap_nodes[(generation - 1) // 2] != question:
                problems.append(f"diameter after fail({question!r}) at generation {generation}")
        if expected != answer:
            problems.append(f"{kind} answer differs from the engine at generation {generation}")
        if len(problems) > 5:
            break
    distinct = len(set(flap_nodes))
    expected_stats = {
        "generation": 2 * len(flap_nodes),
        "faults": 0,
        "queries": len(load.singles) + sum(len(b) for b in load.batches)
        + load.diameters + OPEN_REQUESTS * len(OPEN_RATES),
        "cursor_lru_misses": distinct,
        "cursor_lru_hits": len(flap_nodes) - distinct,
    }
    for key, value in expected_stats.items():
        if stats.get(key) != value:
            problems.append(f"stats {key} = {stats.get(key)}, expected {value}")
    return problems


def replay(engine_factory, load: Load) -> Dict[str, float]:
    """Run the same request stream against an in-process engine (microseconds)."""
    engine = engine_factory()
    start = time.perf_counter()
    for source, target in load.singles:
        engine.next_hop(source, target)
    single = (time.perf_counter() - start) / len(load.singles)
    start = time.perf_counter()
    for pairs in load.batches:
        engine.batch_next_hop(pairs)
    batch = (time.perf_counter() - start) / sum(len(pairs) for pairs in load.batches)
    update_time = 0.0
    for node in load.flaps:
        start = time.perf_counter()
        engine.fail(node)
        update_time += time.perf_counter() - start
        engine.surviving_diameter()
        start = time.perf_counter()
        engine.restore(node)
        update_time += time.perf_counter() - start
    return {
        "engine.single_us": single * 1e6,
        "engine.batch_us_per_query": batch * 1e6,
        "engine.update_us": update_time / (2 * len(load.flaps)) * 1e6,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _ms(value: Optional[float]) -> float:
    return 0.0 if value is None else value * 1e3


def _open_summary(load: Load) -> Dict[str, float]:
    sustained = 0
    lateness: List[float] = []
    for rate in OPEN_RATES:
        latencies = load.open[rate]["latencies"]
        lateness += load.open[rate]["lateness"]
        p99 = supported_percentile(latencies, 0.99)
        if (p99 is not None and p99 * 1e3 <= P99_LIMIT_MS
                and not backlog_grows(latencies, P99_LIMIT_MS / 1e3)):
            sustained = rate
    reference = load.open[OPEN_REFERENCE_RATE]["latencies"]
    late = supported_percentile(lateness, 0.99)
    return {
        "serve.open_p50_ms": _ms(supported_percentile(reference, 0.5)),
        "serve.open_p99_ms": _ms(supported_percentile(reference, 0.99)),
        "serve.open_n": len(reference),
        "serve.sustained_qps": sustained,
        "loadgen.late_ms": _ms(late if late is not None else max(lateness)),
    }


def run(
    root: str, tmp: str, seed: int, seconds: float, trace: bool,
    deadline: procs.Deadline, probe: SpeedProbe,
) -> Dict[str, object]:
    from repro.serving import ServingEngine, load_artifact

    artifact = os.path.join(tmp, "serve.repart")
    server = None
    try:
        setups: List[float] = []
        metrics: Dict[str, float] = {}
        if trace:
            with probe.pinned(probe.main_cpu):
                metrics.update(_traced_compile(root, tmp, artifact, deadline))
                server, host, port = start_server(root, artifact, deadline)
        else:
            # Set-up is single-threaded: it, and the server it leaves
            # running, stay on the main CPU; the load runs on the other.
            with probe.pinned(probe.main_cpu):
                for _ in range(SETUP_REPS):
                    procs.reap(server)
                    start = time.perf_counter()
                    compile_artifact(root, artifact, deadline)
                    server, host, port = start_server(root, artifact, deadline)
                    setups.append(
                        probe.scaled(start, time.perf_counter(), [probe.main_cpu])
                    )
        load_times = []
        for _ in range(3):
            start = time.perf_counter()
            reference = load_artifact(artifact)
            load_times.append(time.perf_counter() - start)
        nodes = list(reference.nodes)
        load = Load(seed, nodes)
        with probe.pinned(probe.other_cpu):
            observed = asyncio.run(asyncio.wait_for(
                drive(host, port, load, seconds, server.pid, trace),
                timeout=max(1.0, deadline.remaining() - 15),
            ))
        peak_rss = proc_peak_rss_mb(server.pid)
    except (OSError, asyncio.TimeoutError, ConnectionError) as exc:
        raise procs.BenchError(f"serve load failed: {exc!r}") from exc
    finally:
        procs.reap(server)

    problems = check_answers(ServingEngine(reference), load, observed["stats"], observed["info"])
    result = {"attempted": load.attempted, "failed": load.failed, "problems": problems}
    # The server runs on the main CPU and the client on the other: rounds
    # are scaled by the mean slowdown of both.
    round_walls = [probe.scaled(start, end) for start, end in load.round_spans]
    if not trace:
        result["metrics"] = {
            "setup_s": median(setups),
            "wall_s": median(round_walls),
            "cpu_s": observed["cpu_per_round"] / probe.slowdown(*observed["rounds_span"]),
            "peak_rss_mb": peak_rss,
        }
        result["notes"] = {
            "measured round wall s (median)": median(end - start for start, end in load.round_spans),
            "rounds": observed["rounds"],
        }
        return result

    engine = replay(lambda: ServingEngine(reference), load)
    singles = sorted(load.single_lat)
    single_p50 = supported_percentile(singles, 0.5)
    traced_walls = [probe.scaled(start, end) for start, end in observed["traced_spans"]]
    stats = observed["stats"]
    metrics.update(engine)
    metrics.update(_open_summary(load))
    metrics.update({
        "artifact.load_s": median(load_times),
        "artifact.bytes": os.path.getsize(artifact),
        "engine.lru_hits": stats["cursor_lru_hits"],
        "engine.lru_misses": stats["cursor_lru_misses"],
        "engine.queries": stats["queries"],
        "wire.single_overhead_us": _ms(single_p50) * 1e3 - engine["engine.single_us"],
        "server.cpu_s": observed["server_cpu"],
        "server.busy_frac": observed["server_cpu"] / observed["load_wall"],
        "client.cpu_s": observed["client_cpu"],
        "serve.single_qps": load.phase_work["single"] / load.phase_walls["single"],
        "serve.single_p50_ms": _ms(single_p50),
        "serve.single_p99_ms": _ms(supported_percentile(singles, 0.99)),
        "serve.single_n": len(singles),
        "serve.batch_qps": load.phase_work["batch"] / load.phase_walls["batch"],
        "serve.update_p50_ms": _ms(supported_percentile(load.update_lat, 0.5)),
        "serve.update_p99_ms": _ms(supported_percentile(load.update_lat, 0.99)),
        "serve.update_n": len(load.update_lat),
        "trace.wall_s": median(end - start for start, end in observed["traced_spans"]),
        "serve-mixed.unattributed_s": observed["unattributed"],
        "serve-mixed.trace_overhead_frac": median(traced_walls) / median(round_walls) - 1.0,
    })
    result["metrics"] = metrics
    busy = {phase: round(cpu, 3) for phase, cpu in sorted(load.phase_cpu.items())}
    result["notes"] = {
        "server cpu seconds by phase (traced rounds)": busy,
        "open loop p50/p99/late-p99 ms by rate": {
            rate: [round(_ms(supported_percentile(load.open[rate][key], q)), 3)
                   for key, q in (("latencies", 0.5), ("latencies", 0.99), ("lateness", 0.99))]
            for rate in OPEN_RATES
        },
    }
    return result


def _traced_compile(root: str, tmp: str, artifact: str, deadline) -> Dict[str, float]:
    """``repro compile`` under the tracer: compile and construction layers."""
    spool = os.path.join(tmp, "spool")
    os.makedirs(spool)
    argv = [traced_cli_path(), spool, "--", "compile", "--graph", GRAPH,
            "--strategy", STRATEGY, "--output", artifact]
    procs.run(argv, root, deadline, "traced repro compile")
    spans = read_parent_spans(spool)
    metrics = construction_metrics(spans)
    metrics["artifact.compile_s"] = spans["total"].get("artifact.compile", 0.0)
    return metrics
