"""Metric arithmetic shared by the benchmark workloads.

Everything here is pure (no I/O except the ``/proc`` readers) so the
self-tests in ``test_perfbench.py`` can pin the rules down exactly:

* nearest-rank percentiles, reported only when at least
  :data:`MIN_BEYOND` samples lie beyond the percentile;
* open-loop latency timed from when each request was *due*, and the
  generator's own lateness (how far behind its schedule it dispatched);
* CPU time and peak RSS parsed from ``/proc/<pid>/stat`` and
  ``/proc/<pid>/status``.
"""

from __future__ import annotations

import math
import os
import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only if this many samples lie beyond it.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of no values")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {fraction!r}")
    rank = max(1, math.ceil(len(sorted_values) * fraction - 1e-9))
    return sorted_values[rank - 1]


def beyond_count(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    rank = max(1, math.ceil(count * fraction - 1e-9))
    return count - rank


def supported_percentile(
    values: Iterable[float], fraction: float
) -> Optional[float]:
    """The nearest-rank percentile, or ``None`` when the sample is too small.

    "Too small" means fewer than :data:`MIN_BEYOND` samples beyond it: a p99
    needs at least 1010 samples, a p50 at least 20.
    """
    ordered = sorted(values)
    if not ordered or beyond_count(len(ordered), fraction) < MIN_BEYOND:
        return None
    return nearest_rank(ordered, fraction)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def open_loop_latencies(
    records: Sequence[Tuple[float, float, float, float]]
) -> Tuple[List[float], List[float]]:
    """Split open-loop request records into latencies and generator lateness.

    Each record is ``(due, ready, sent, done)``: when the request was due on
    the schedule, when its sender became free, when it was actually sent and
    when its reply arrived.  The latency is ``done - due``, so a stall that
    delays later requests counts against them too.  The generator's lateness
    is ``sent - max(due, ready)``: the time the load generator itself added
    beyond the schedule and beyond waiting for a busy connection.
    """
    latencies = [done - due for due, _ready, _sent, done in records]
    lateness = [sent - max(due, ready) for due, ready, sent, _done in records]
    return latencies, lateness


def backlog_grows(latencies: Sequence[float], limit: float) -> bool:
    """Did the queue keep growing over an open-loop phase?

    The phase's latencies are in schedule order; the backlog counts as
    growing when the median latency of its last fifth exceeds ``limit``
    (the latency limit the sustained rate is held to).
    """
    if not latencies:
        return True
    tail = list(latencies[-max(1, len(latencies) // 5):])
    return median(tail) > limit


def parse_proc_stat(text: str, clock_ticks: int) -> float:
    """User plus system CPU seconds from the text of ``/proc/<pid>/stat``.

    The command name (field 2) sits in parentheses and may itself contain
    spaces or parentheses, so the fields are split after the *last* ``)``;
    ``utime`` and ``stime`` are fields 14 and 15 of the full line.
    """
    rest = text[text.rindex(")") + 2:].split()
    utime, stime = int(rest[11]), int(rest[12])
    return (utime + stime) / clock_ticks


def parse_running_cpu(text: str) -> Optional[int]:
    """The CPU a process runs on, from ``/proc/<pid>/stat``; None if not running.

    ``state`` is field 3 and ``processor`` (the CPU it last ran on) field 39.
    """
    rest = text[text.rindex(")") + 2:].split()
    return int(rest[36]) if rest[0] == "R" else None


def running_cpus(pid: int) -> List[int]:
    """CPUs of ``pid`` and its child processes that are running right now."""
    cpus: List[int] = []
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="utf-8") as handle:
            pids = [pid, *map(int, handle.read().split())]
    except OSError:
        return cpus
    for each in pids:
        try:
            with open(f"/proc/{each}/stat", encoding="utf-8") as handle:
                cpu = parse_running_cpu(handle.read())
        except OSError:
            continue  # exited between the listing and the read
        if cpu is not None:
            cpus.append(cpu)
    return cpus


def parse_vm_hwm_mb(text: str) -> float:
    """Peak resident set (``VmHWM``) in MiB from ``/proc/<pid>/status``."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line in the status text")


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        return parse_proc_stat(handle.read(), os.sysconf("SC_CLK_TCK"))


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        return parse_vm_hwm_mb(handle.read())
