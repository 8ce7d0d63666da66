"""Supervised task dispatch over :mod:`multiprocessing` pools.

Scenario-suite campaigns and tolerance scans both reduce to the same
shape: a deterministic list of pure tasks drained through a process pool,
results folded in task order.  Before this module a single worker segfault,
OOM-kill or wedged scenario aborted (or hung) the entire sweep.
:class:`Supervisor` wraps the dispatch with the crash/recovery discipline
the distributed-systems literature catalogues for crash-stop executions —
timeouts as failure detectors, bounded idempotent retry, quarantine for
poisoned work:

* **per-task wall-clock timeouts** — a task that exceeds
  :attr:`SupervisorPolicy.task_timeout` is declared lost, the pool (whose
  worker is wedged on it) is rebuilt, and the task is retried;
* **bounded retry with exponential backoff** — a task that raises is
  retried up to :attr:`SupervisorPolicy.max_retries` times.  Tasks are pure
  functions of their descriptors (seeds travel *inside* the task), so a
  retry recomputes byte-identical results — recovery never changes rows;
* **dead-worker detection** — the supervisor snapshots the pool's worker
  pids and, while waiting, notices vanished workers (``SIGKILL``, OOM,
  segfault).  :class:`multiprocessing.pool.Pool` respawns the process but
  silently loses whatever it was executing, so every non-finished in-flight
  task is re-dispatched (duplicated execution is harmless: tasks are pure
  and results are read from the newest submission only);
* **poisoned-task quarantine** — a task that fails ``max_retries + 1``
  times is yielded as a :class:`FailedTask` instead of killing the sweep;
  with :attr:`SupervisorPolicy.strict` the original fail-fast behaviour is
  restored (:class:`TaskFailedError`);
* **graceful degradation** — when the pool breaks and cannot be rebuilt
  (:attr:`SupervisorPolicy.max_pool_rebuilds` exceeded, or rebuilding
  itself fails), the remaining tasks run sequentially in-process.

Results are yielded strictly in task-submission order through a sliding
window of ``workers * window_per_worker`` in-flight tasks — exactly the
order ``pool.imap`` would produce — so supervised and unsupervised runs are
byte-identical on the clean path.

The supervisor does **not** own pool construction.  Its one caller in the
library, :class:`repro.faults.engine.ShardExecutor`, hands it
``ensure_pool`` / ``rebuild_pool`` callbacks and keeps the pool lifecycle
(broadcast initializer, slim-index payload, finalizer) to itself.

:func:`shutdown_pool` is the shared hardened teardown: ``terminate()``,
then ``join()`` every worker with a deadline, escalating to ``kill()`` for
processes that ignore ``SIGTERM`` — interrupted runs never leave zombie
workers behind.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import Callable, Deque, Dict, Iterable, Iterator, Optional, Set, Tuple

from repro.exceptions import ReproError

__all__ = [
    "FailedTask",
    "Supervisor",
    "SupervisorPolicy",
    "TaskFailedError",
    "shutdown_pool",
]


class TaskFailedError(ReproError):
    """A supervised task exhausted its retry budget under ``strict``."""


#: Exceptions that indicate the *pool machinery* (queues, result handler)
#: broke, as opposed to the task itself raising.
_POOL_ERRORS = (OSError, EOFError, BrokenPipeError)

_SENTINEL = object()


@dataclasses.dataclass(frozen=True)
class SupervisorPolicy:
    """Tunables of one supervised run (immutable, safe to share).

    ``task_timeout`` is a wall-clock failure detector: ``None`` disables it
    (the historical behaviour — a wedged worker hangs the sweep).  A timed
    out or crashed task costs one attempt; after ``max_retries + 1``
    attempts it is quarantined (``strict=False``) or raised
    (``strict=True``).  ``max_pool_rebuilds`` bounds how often a broken
    pool is rebuilt before degrading to in-process execution
    (``fallback_inprocess``); with the fallback disabled an unrebuildable
    pool raises instead.
    """

    task_timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    strict: bool = False
    max_pool_rebuilds: int = 3
    fallback_inprocess: bool = True
    poll_interval: float = 0.05
    window_per_worker: int = 4
    shutdown_grace: float = 5.0

    def backoff(self, attempts: int) -> float:
        """Return the sleep before retry number ``attempts`` (bounded)."""
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempts - 1),
        )


@dataclasses.dataclass
class FailedTask:
    """A quarantined task: it failed every attempt and was given up on.

    Yielded in the task's submission-order slot so consumers can record a
    structured ``failed`` row (the suite's disposition machinery) instead
    of aborting the sweep.
    """

    task: object
    attempts: int
    reason: str


class _Entry:
    """One in-flight task: descriptor, newest submission, failure state."""

    __slots__ = ("task", "result", "attempts", "deadline", "failed")

    def __init__(self, task: object) -> None:
        self.task = task
        self.result = None
        self.attempts = 0
        self.deadline: Optional[float] = None
        self.failed: Optional[FailedTask] = None


def shutdown_pool(pool, grace: float = 5.0) -> None:
    """Terminate ``pool`` and guarantee its workers are gone.

    ``Pool.terminate()`` sends ``SIGTERM`` and then **joins every worker
    without a timeout** — a worker stuck in uninterruptible I/O or ignoring
    the signal wedges ``terminate()`` itself forever (and the CLI leaks
    zombie workers on Ctrl-C).  The call therefore runs on a watchdog
    thread: workers still alive after ``grace`` seconds are escalated to
    ``kill()`` (``SIGKILL``), which unblocks the join inside
    ``terminate()``.  Safe on ``None`` and on already-closed pools.
    """
    if pool is None:
        return
    import threading

    workers = list(getattr(pool, "_pool", None) or ())
    done = threading.Event()

    def _terminate() -> None:
        try:
            pool.terminate()
        except Exception:
            pass
        finally:
            done.set()

    thread = threading.Thread(
        target=_terminate, name="repro-pool-terminate", daemon=True
    )
    thread.start()
    done.wait(grace)
    if not done.is_set() or any(process.is_alive() for process in workers):
        for process in workers:
            try:
                if process.is_alive():
                    process.kill()
            except Exception:
                pass
        done.wait(grace)
    deadline = time.monotonic() + grace
    for process in workers:
        try:
            process.join(max(0.0, deadline - time.monotonic()))
        except Exception:
            pass
    if done.is_set():
        # Only join the pool's bookkeeping threads once terminate() has
        # returned — joining a pool wedged mid-terminate would hang.
        try:
            pool.join()
        except Exception:
            pass


class Supervisor:
    """Drain pure tasks through a pool with timeouts, retries and rebuilds.

    Parameters
    ----------
    worker_fn:
        Module-level function executed in the workers (must be picklable).
    ensure_pool:
        Callback returning the (lazily created) pool.  ``None`` — or
        ``workers <= 1`` — selects the in-process path, which still applies
        retry and quarantine (but no timeouts: a synchronous call cannot be
        abandoned).
    rebuild_pool:
        Callback tearing the current pool down and returning a fresh one;
        used after timeouts and pool-machinery failures.
    local_fn:
        In-process equivalent of ``worker_fn`` for sequential execution and
        degraded mode (defaults to ``worker_fn`` itself).
    policy:
        The :class:`SupervisorPolicy`; defaults to quarantine semantics.
    workers:
        Worker count of the pool (sizes the sliding window).

    :meth:`run` yields ``(task, result)`` pairs in task order, where
    ``result`` is the worker's return value or a :class:`FailedTask`.
    ``stats`` counts retries, timeouts, worker deaths, rebuilds,
    quarantines and degradation for callers that surface them.
    """

    def __init__(
        self,
        worker_fn: Callable,
        ensure_pool: Optional[Callable[[], object]] = None,
        rebuild_pool: Optional[Callable[[], object]] = None,
        local_fn: Optional[Callable] = None,
        policy: Optional[SupervisorPolicy] = None,
        workers: int = 1,
    ) -> None:
        self.worker_fn = worker_fn
        self.ensure_pool = ensure_pool
        self.rebuild_pool = rebuild_pool
        self.local_fn = local_fn if local_fn is not None else worker_fn
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.workers = workers
        self.stats: Dict[str, int] = {
            "tasks": 0,
            "retries": 0,
            "timeouts": 0,
            "worker_deaths": 0,
            "rebuilds": 0,
            "quarantined": 0,
            "degraded": 0,
        }

    # ------------------------------------------------------------------
    # Shared failure plumbing
    # ------------------------------------------------------------------
    def _quarantine(
        self,
        task: object,
        attempts: int,
        reason: str,
        cause: Optional[BaseException] = None,
    ) -> FailedTask:
        self.stats["quarantined"] += 1
        if self.policy.strict:
            raise TaskFailedError(
                f"task {task!r} failed {attempts} attempt(s): {reason}"
            ) from cause
        return FailedTask(task=task, attempts=attempts, reason=reason)

    def _run_local(self, task: object, attempts: int = 0):
        """Run one task in-process with the retry/quarantine discipline."""
        while True:
            try:
                return self.local_fn(task)
            except Exception as exc:  # noqa: BLE001 - retry boundary
                attempts += 1
                if attempts > self.policy.max_retries:
                    return self._quarantine(
                        task, attempts, f"{type(exc).__name__}: {exc}", exc
                    )
                self.stats["retries"] += 1
                time.sleep(self.policy.backoff(attempts))

    def _drain_local(self, iterator: Iterator, pending: Iterable[_Entry]):
        """Degraded mode: finish every remaining task in-process."""
        if not self.policy.fallback_inprocess:
            raise TaskFailedError(
                "worker pool could not be rebuilt and in-process fallback "
                "is disabled"
            )
        self.stats["degraded"] = 1
        for entry in pending:
            if entry.failed is not None:
                yield entry.task, entry.failed
            else:
                yield entry.task, self._run_local(entry.task, entry.attempts)
        for task in iterator:
            self.stats["tasks"] += 1
            yield task, self._run_local(task)

    # ------------------------------------------------------------------
    # The supervised run
    # ------------------------------------------------------------------
    @staticmethod
    def _worker_pids(pool) -> Set[int]:
        return {
            process.pid for process in getattr(pool, "_pool", None) or ()
        }

    def run(self, tasks: Iterable) -> Iterator[Tuple[object, object]]:
        """Yield ``(task, result_or_FailedTask)`` in task-submission order."""
        if self.workers <= 1 or self.ensure_pool is None:
            for task in tasks:
                self.stats["tasks"] += 1
                yield task, self._run_local(task)
            return
        yield from self._run_pooled(iter(tasks))

    def _run_pooled(self, iterator: Iterator) -> Iterator[Tuple[object, object]]:
        import multiprocessing

        policy = self.policy
        try:
            pool = self.ensure_pool()
        except Exception:
            pool = None
        if pool is None:
            yield from self._drain_local(iterator, ())
            return

        window = max(1, self.workers * policy.window_per_worker)
        pending: Deque[_Entry] = collections.deque()
        pids = self._worker_pids(pool)

        def submit(entry: _Entry) -> None:
            entry.result = pool.apply_async(self.worker_fn, (entry.task,))
            entry.deadline = (
                None
                if policy.task_timeout is None
                else time.monotonic() + policy.task_timeout
            )

        def refill() -> None:
            # The entry joins ``pending`` *before* its first submission so a
            # submit-time pool failure can never lose a task already taken
            # from the iterator — rebuild/degrade will re-dispatch it.
            while len(pending) < window:
                task = next(iterator, _SENTINEL)
                if task is _SENTINEL:
                    return
                self.stats["tasks"] += 1
                entry = _Entry(task)
                pending.append(entry)
                submit(entry)

        def resubmit_in_flight() -> None:
            """Re-dispatch every pending task without a finished result."""
            for entry in pending:
                if entry.failed is None and (
                    entry.result is None or not entry.result.ready()
                ):
                    submit(entry)

        def rebuild() -> bool:
            """Tear down and rebuild the pool; False means degrade."""
            nonlocal pool, pids
            self.stats["rebuilds"] += 1
            if (
                self.rebuild_pool is None
                or self.stats["rebuilds"] > policy.max_pool_rebuilds
            ):
                pool = None
                return False
            try:
                pool = self.rebuild_pool()
                pids = self._worker_pids(pool)
                # The old pool lost both its executing tasks and the queued
                # backlog: everything unfinished goes back out.
                resubmit_in_flight()
            except Exception:
                pool = None
                return False
            return True

        try:
            refill()
        except (ValueError,) + _POOL_ERRORS:
            if not rebuild():
                yield from self._drain_local(iterator, pending)
                return
        while pending:
            head = pending[0]
            if head.failed is not None:
                pending.popleft()
                yield head.task, head.failed
                try:
                    refill()
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                continue
            try:
                value = head.result.get(policy.poll_interval)
            except multiprocessing.TimeoutError:
                if (
                    head.deadline is not None
                    and time.monotonic() > head.deadline
                ):
                    # Failure detector fired: the worker holding this task
                    # is considered wedged.  The pool is rebuilt (the only
                    # way to reclaim the worker) and the task re-tried.
                    self.stats["timeouts"] += 1
                    head.attempts += 1
                    if head.attempts > policy.max_retries:
                        head.failed = self._quarantine(
                            head.task,
                            head.attempts,
                            f"timed out after {policy.task_timeout:g}s "
                            f"per attempt",
                        )
                    else:
                        self.stats["retries"] += 1
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                    continue
                current = self._worker_pids(pool)
                dead = pids - current
                if dead:
                    # A worker vanished (SIGKILL / OOM / segfault).  The
                    # pool respawns the process but its in-flight task is
                    # silently lost.  We cannot know *which* pending task
                    # died with it, so the oldest unfinished entries — the
                    # ones most likely executing — are charged an attempt,
                    # and every unfinished task is re-dispatched.
                    self.stats["worker_deaths"] += len(dead)
                    pids = current
                    charged = 0
                    for entry in pending:
                        if charged >= len(dead):
                            break
                        if entry.failed is None and not entry.result.ready():
                            entry.attempts += 1
                            if entry.attempts > policy.max_retries:
                                entry.failed = self._quarantine(
                                    entry.task,
                                    entry.attempts,
                                    "worker process died while executing "
                                    "this task",
                                )
                            charged += 1
                    try:
                        resubmit_in_flight()
                    except (ValueError,) + _POOL_ERRORS:
                        if not rebuild():
                            yield from self._drain_local(iterator, pending)
                            return
                continue
            except _POOL_ERRORS:
                # The pool machinery itself broke (result handler died,
                # queue torn): rebuild or degrade.
                if not rebuild():
                    yield from self._drain_local(iterator, pending)
                    return
                continue
            except Exception as exc:  # noqa: BLE001 - the task raised
                head.attempts += 1
                if head.attempts > policy.max_retries:
                    head.failed = self._quarantine(
                        head.task,
                        head.attempts,
                        f"{type(exc).__name__}: {exc}",
                        exc,
                    )
                    continue
                self.stats["retries"] += 1
                time.sleep(policy.backoff(head.attempts))
                try:
                    submit(head)
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
                continue
            else:
                pending.popleft()
                yield head.task, value
                try:
                    refill()
                except (ValueError,) + _POOL_ERRORS:
                    if not rebuild():
                        yield from self._drain_local(iterator, pending)
                        return
