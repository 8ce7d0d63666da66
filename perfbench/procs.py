"""Process hygiene for the benchmark: deadlines, spawning and reaping.

Every child runs in its own session, so reaping it also reaps whatever it
started (pool workers of ``repro grid``, the asyncio server).  :func:`reap`
is safe to call on any exit path and on an already finished process.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: Wall-clock budget of one benchmark invocation (the hard limit is 180 s).
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A workload could not complete (timeout, non-zero exit, bad output)."""


class Deadline:
    def __init__(self, seconds: float = RUN_BUDGET_S) -> None:
        self.end = time.monotonic() + seconds

    def remaining(self) -> float:
        return self.end - time.monotonic()

    def check(self, what: str) -> None:
        if self.remaining() <= 0:
            raise BenchError(f"out of time budget during {what}")


def child_env(root: str) -> Dict[str, str]:
    """Environment for program children: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def spawn(
    argv: List[str], root: str, stdout=subprocess.DEVNULL, stderr=None
) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, *argv],
        cwd=root,
        env=child_env(root),
        stdin=subprocess.DEVNULL,
        stdout=stdout,
        stderr=stderr if stderr is not None else subprocess.DEVNULL,
        start_new_session=True,
    )


def reap(proc: Optional[subprocess.Popen], grace: float = 3.0) -> None:
    """Stop ``proc`` and its session (SIGTERM, then SIGKILL) and wait for it."""
    if proc is None:
        return
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=grace)
            break
        except subprocess.TimeoutExpired:
            continue
    # Close our ends of its pipes.
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def run(argv: List[str], root: str, deadline: Deadline, what: str) -> None:
    """Run a program child to completion; raise unless it exits 0."""
    proc = spawn(argv, root, stderr=subprocess.PIPE)
    try:
        _out, err = proc.communicate(timeout=max(1.0, deadline.remaining()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out") from None
    finally:
        reap(proc)
    if proc.returncode != 0:
        tail = err.decode("utf-8", "replace").strip().splitlines()[-3:]
        raise BenchError(f"{what} exited {proc.returncode}: {' | '.join(tail)}")
