"""Machine-speed probe: rescales measured times to a nominal machine speed.

On a shared virtual machine the host can take a virtual CPU away from the
guest without the guest noticing: wall *and* CPU time of the same work then
vary by 2x within seconds, and differently on each virtual CPU.  The probe
runs one small process pinned to each CPU; every :data:`INTERVAL_S` it
times a fixed pure-Python loop by its own CPU clock and appends
``(monotonic start, cpu seconds)`` to a file.  CPU time the guest scheduler
gives to other processes does not count in that clock; time the host takes
away does, so the mean probe time over an interval divided by
:data:`NOMINAL_S` is that CPU's *slowdown* over the interval.

:meth:`SpeedProbe.scaled` turns an interval's measured duration into
seconds at nominal speed (``duration / slowdown``), for the CPUs the
measured work ran on; :meth:`SpeedProbe.pinned` keeps single-threaded work
on one known CPU.  Each probe costs about 1% of its CPU.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import subprocess
import sys
import time
from typing import Iterator, List, Optional, Sequence, Tuple

#: Seconds between probe samples.
INTERVAL_S = 0.01
#: Probe loop length (iterations) and its CPU time on an uncontended core
#: (the floor of this loop on a 2-vCPU x86-64 VM under Python 3.11).
LOOP = 2000
NOMINAL_S = 118e-6

_PROBE = f"""
import os, sys, time
os.sched_setaffinity(0, {{int(sys.argv[2])}})
def loop():
    s = 0
    for i in range({LOOP}):
        s += i * i % 7
    return s
out = open(sys.argv[1], "a", buffering=1)
while True:
    start, cpu = time.perf_counter(), time.process_time()
    loop()
    out.write(f"{{start:.6f}} {{time.process_time() - cpu:.9f}}\\n")
    time.sleep({INTERVAL_S})
"""


class _CpuProbe:
    """The samples of the probe process pinned to one CPU."""

    def __init__(self, directory: str, cpu: int) -> None:
        self.path = os.path.join(directory, f"speed-probe-{cpu}.txt")
        self._times: List[float] = []
        self._cpu: List[float] = []
        self._offset = 0
        open(self.path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _PROBE, self.path, str(cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            start_new_session=True,
        )

    def _read(self) -> int:
        with open(self.path, encoding="utf-8") as handle:
            handle.seek(self._offset)
            data = handle.read()
        complete = data[: data.rfind("\n") + 1]
        self._offset += len(complete.encode("utf-8"))
        for line in complete.splitlines():
            start, cpu = line.split()
            self._times.append(float(start))
            self._cpu.append(float(cpu))
        return len(self._times)

    def samples(self, start: float, end: float) -> List[float]:
        """Probe times over ``[start, end]``, widened by one sample each side."""
        self._read()
        first = max(0, bisect.bisect_left(self._times, start) - 1)
        last = min(len(self._times), bisect.bisect_right(self._times, end) + 1)
        return self._cpu[first:last]


class SpeedProbe:
    """One probe per CPU this process may run on."""

    def __init__(self, directory: str) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._probes = {cpu: _CpuProbe(directory, cpu) for cpu in self.cpus}
        # Wait for a first sample everywhere, so every interval is covered.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and not all(
            probe._read() for probe in self._probes.values()
        ):
            time.sleep(INTERVAL_S)

    @property
    def main_cpu(self) -> int:
        """The CPU single-threaded work is pinned to."""
        return self.cpus[-1]

    @property
    def other_cpu(self) -> int:
        """A second CPU for a second process (the main one if there is none)."""
        return self.cpus[0]

    def close(self) -> None:
        for probe in self._probes.values():
            probe.proc.kill()
            probe.proc.wait()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def slowdown(
        self, start: float, end: float, cpus: Optional[Sequence[int]] = None
    ) -> float:
        """Mean slowdown of ``cpus`` (default: all) over ``[start, end]``."""
        per_cpu = [
            slowdown_of(self._probes[cpu].samples(start, end))
            for cpu in (self.cpus if cpus is None else cpus)
        ]
        return sum(per_cpu) / len(per_cpu)

    def scaled(
        self, start: float, end: float, cpus: Optional[Sequence[int]] = None
    ) -> float:
        """Duration of ``[start, end]`` in seconds at nominal speed."""
        return (end - start) / self.slowdown(start, end, cpus)

    def track_slowdown(self, track: Sequence[Tuple[float, Sequence[int]]]) -> float:
        """Slowdown over a run whose running CPUs were sampled over time.

        ``track`` holds ``(time, cpus)`` samples in time order, ``cpus``
        listing the CPU of every process of the run that was running at that
        time (a CPU twice if two processes ran there).  Each interval between
        samples is weighted by its length; an interval with nothing running
        counts all CPUs.
        """
        weighted = total = 0.0
        for (start, cpus), (end, _next) in zip(track, track[1:]):
            weighted += (end - start) * self.slowdown(start, end, list(cpus) or None)
            total += end - start
        return weighted / total if total else self.slowdown(track[0][0], track[-1][0])

    @contextlib.contextmanager
    def pinned(self, cpu: int) -> Iterator[None]:
        """Run this process (and children it starts) on ``cpu`` only."""
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        try:
            yield
        finally:
            os.sched_setaffinity(0, previous)


def slowdown_of(samples: List[float]) -> float:
    """Mean of probe samples over the nominal probe time (1.0 if none)."""
    if not samples:
        return 1.0
    return sum(samples) / len(samples) / NOMINAL_S
