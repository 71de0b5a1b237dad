"""Process-parallel task execution with deterministic result ordering.

:class:`ParallelRunner` fans a list of independent tasks out across a
``concurrent.futures.ProcessPoolExecutor`` and returns one
:class:`TaskResult` per input, *in input order*, regardless of
completion order — so a ``--jobs 4`` run produces byte-identical tables
to a sequential one.  Failures are captured per task (exception plus
formatted traceback) instead of propagating, so one pathological loop
fails soft instead of killing a whole sweep; callers opt back into
fail-fast semantics with :meth:`ParallelRunner.map`'s
``on_error="raise"``.

The worker count resolves as: explicit argument, else the
``REPRO_JOBS`` environment variable, else 1 (sequential).  ``jobs <= 1``
runs everything inline in the calling process — same code path, no
pickling, exceptions still captured — which keeps the cache counters of
the calling :class:`~repro.session.session.Session` exact.

``persistent=True`` keeps one warm ``ProcessPoolExecutor`` alive across
``map`` calls instead of rebuilding it per call — the worker pool behind
the serve daemon (:mod:`repro.serve`) and batch users that map many
small waves.  A persistent runner recycles its workers after
``max_tasks_per_worker`` tasks each (bounding interpreter bloat from
long-lived children), replaces the pool when a worker hard-crashes
(``BrokenProcessPool`` fails the call's tasks soft, and the next
``map`` gets a fresh pool), and must be released with
:meth:`ParallelRunner.close` or a ``with`` block.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..errors import TaskTimeout
from ..obs import metrics, telemetry
from ..obs.telemetry import Telemetry

__all__ = ["ParallelRunner", "TaskResult", "resolve_jobs"]


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: argument > ``REPRO_JOBS`` env > 1."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}") from None
    if jobs is None:
        return 1
    if jobs < 0:
        jobs = os.cpu_count() or 1
    return max(jobs, 1)


@dataclass
class TaskResult:
    """Outcome of one task: either a value or a captured error."""

    index: int
    value: Any = None
    error: BaseException | None = None
    error_traceback: str = ""
    timed_out: bool = False  #: the failure was a per-task timeout
    #: a worker's :meth:`~repro.obs.telemetry.Telemetry.snapshot`
    #: awaiting merge; the runner folds it into the parent's context and
    #: clears it.
    telemetry: Any = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """Return the value, re-raising the captured error if any."""
        if self.error is not None:
            raise RuntimeError(
                f"task {self.index} failed: {self.error}\n"
                f"{self.error_traceback}") from self.error
        return self.value


def _call(fn: Callable[[Any], Any], index: int, item: Any) -> TaskResult:
    try:
        return TaskResult(index=index, value=fn(item))
    except BaseException as exc:  # noqa: BLE001 — captured, surfaced per task
        return TaskResult(index=index, error=exc,
                          error_traceback=traceback.format_exc())


def _traced_call(fn: Callable[[Any], Any], index: int, item: Any,
                 switches: dict[str, bool]) -> TaskResult:
    """Worker entry point: run the task under a fresh telemetry context
    with the parent's ``switches`` and ship everything it recorded
    (metrics / events / spans) back in ``TaskResult.telemetry`` — also
    when the task failed, so partial work is counted as the inline path
    counts it."""
    with Telemetry(**switches) as recorded:
        result = _call(fn, index, item)
    result.telemetry = recorded.snapshot()
    return result


@dataclass
class ParallelRunner:
    """Maps a callable over items, in parallel when ``jobs > 1``."""

    jobs: int | None = None
    #: keep one warm process pool across ``map`` calls (see module doc);
    #: release it with :meth:`close` / a ``with`` block.
    persistent: bool = False
    #: recycle the persistent pool after this many tasks per worker
    #: (``None`` = never recycle).
    max_tasks_per_worker: int | None = None
    #: resolved worker count (populated on first use)
    resolved_jobs: int = field(init=False, default=0)
    _pool: Any = field(init=False, default=None, repr=False)
    #: tasks dispatched to the current persistent pool since it spawned
    _pool_tasks: int = field(init=False, default=0, repr=False)

    def __post_init__(self) -> None:
        self.resolved_jobs = resolve_jobs(self.jobs)
        if self.max_tasks_per_worker is not None \
                and self.max_tasks_per_worker < 1:
            raise ValueError(f"max_tasks_per_worker must be >= 1 or None, "
                             f"got {self.max_tasks_per_worker}")

    # -- persistent-pool lifecycle -----------------------------------------------

    def close(self) -> None:
        """Shut down the persistent pool (if any).  Idempotent; the
        runner stays usable — the next parallel ``map`` spawns a fresh
        pool."""
        self._dispose_pool()

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _dispose_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._pool_tasks = 0
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def _acquire_pool(self, workers: int):
        """The pool for one ``map``: fresh per call normally, the shared
        warm pool under ``persistent=True`` (sized ``resolved_jobs`` so
        differently-sized maps reuse it, recycled after
        ``max_tasks_per_worker`` tasks per worker)."""
        if not self.persistent:
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=workers)
        size = self.resolved_jobs
        if (self._pool is not None and self.max_tasks_per_worker is not None
                and self._pool_tasks >= self.max_tasks_per_worker * size):
            self._dispose_pool()
            metrics.counter(
                "runner.worker_recycles",
                "persistent pools recycled after max_tasks_per_worker"
            ).inc()
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=size)
        return self._pool

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            *, on_error: str = "capture",
            timeout: float | None = None) -> list[TaskResult]:
        """Run ``fn(item)`` for every item; results come back in input
        order.

        ``on_error="capture"`` (default) returns failed tasks as
        :class:`TaskResult`\\ s with ``ok == False``;
        ``on_error="raise"`` re-raises the first failure (by input
        order) after all tasks have been given the chance to run.

        ``timeout`` bounds each task's wall time: a task that overruns
        fails soft with a :class:`~repro.errors.TaskTimeout` error and
        ``timed_out=True`` (in the parallel path the wedged worker
        process is terminated so the pool cannot hang).
        """
        if on_error not in ("capture", "raise"):
            raise ValueError(f"on_error must be 'capture' or 'raise', "
                             f"got {on_error!r}")
        items = list(items)
        workers = min(self.resolved_jobs, len(items)) if items else 0
        metrics.counter("runner.tasks", "tasks dispatched").inc(len(items))
        if workers <= 1:
            results = self._run_sequential(fn, items, timeout)
        else:
            results = self._run_parallel(fn, items, timeout, workers)
        context = telemetry.current()
        for res in results:
            if res.telemetry is not None:
                # merged in input order, so a --jobs N trace replays
                # byte-identical to --jobs 1
                context.merge(res.telemetry)
                res.telemetry = None
            if res.timed_out:
                metrics.counter(
                    "runner.timeouts", "tasks that hit the "
                    "per-task timeout").inc()
        metrics.counter("runner.failures", "tasks that raised").inc(
            sum(1 for r in results if not r.ok))
        if on_error == "raise":
            for res in results:
                if not res.ok:
                    res.unwrap()
        return results

    # -- execution ----------------------------------------------------------------

    @staticmethod
    def _timeout_result(index: int, timeout: float) -> TaskResult:
        err = TaskTimeout(f"task {index} exceeded timeout={timeout}s")
        return TaskResult(index=index, error=err,
                          error_traceback=f"{type(err).__name__}: {err}\n",
                          timed_out=True)

    def _run_sequential(self, fn, items,
                        timeout: float | None) -> list[TaskResult]:
        """Run every task inline.  With a timeout, each task runs on a
        helper thread so an overrun fails soft; the abandoned thread
        finishes in the background (Python threads cannot be killed)
        but its result is discarded."""
        if timeout is None:
            return [_call(fn, i, item) for i, item in enumerate(items)]
        out = []
        for i, item in enumerate(items):
            pool = concurrent.futures.ThreadPoolExecutor(max_workers=1)
            fut = pool.submit(_call, fn, i, item)
            try:
                out.append(fut.result(timeout=timeout))
            except concurrent.futures.TimeoutError:
                out.append(self._timeout_result(i, timeout))
            finally:
                pool.shutdown(wait=False)
        return out

    def _run_parallel(self, fn, items, timeout: float | None,
                      workers: int) -> list[TaskResult]:
        """Run every task on the process pool.  The deadline budgets
        ``timeout`` per queued batch (tasks can wait for a worker
        without being penalised); on expiry the wedged workers are
        terminated so the pool shutdown cannot hang."""
        results: dict[int, TaskResult] = {}
        switches = telemetry.current().switches()
        pool = self._acquire_pool(workers)
        keep_pool = self.persistent
        try:
            futures = {pool.submit(_traced_call, fn, i, item, switches): i
                       for i, item in enumerate(items)}
        except concurrent.futures.process.BrokenProcessPool as exc:
            # a previous call's crash poisoned the warm pool between
            # maps: fail this call soft and replace the pool.
            self._replace_broken_pool()
            return [TaskResult(index=i, error=exc,
                               error_traceback=traceback.format_exc())
                    for i in range(len(items))]
        self._pool_tasks += len(items)
        deadline = None if timeout is None else (
            time.monotonic() + timeout * math.ceil(len(items) / workers))
        broken = False
        killed = False
        try:
            not_done = set(futures)
            while not_done:
                remaining = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                done, not_done = concurrent.futures.wait(
                    not_done, timeout=remaining)
                for fut in done:
                    i = futures[fut]
                    try:
                        results[i] = fut.result()
                    except BaseException as exc:  # pool/pickling failure
                        if isinstance(
                                exc,
                                concurrent.futures.process.BrokenProcessPool):
                            broken = True
                        results[i] = TaskResult(
                            index=i, error=exc,
                            error_traceback=traceback.format_exc())
                if deadline is not None and not done and not_done:
                    # deadline expired: everything unfinished is a
                    # timeout; kill the workers so shutdown can't hang.
                    for fut in not_done:
                        fut.cancel()
                        results[futures[fut]] = self._timeout_result(
                            futures[fut], timeout)
                    self._terminate_workers(pool)
                    killed = True
                    break
        finally:
            if not keep_pool:
                pool.shutdown(wait=False, cancel_futures=True)
            elif broken or killed:
                # crash replacement: drop the poisoned/killed pool; the
                # next map spawns a fresh one.
                self._replace_broken_pool()
        return [results[i] for i in range(len(items))]

    def _replace_broken_pool(self) -> None:
        self._dispose_pool()
        metrics.counter(
            "runner.pool_rebuilds",
            "persistent pools replaced after a worker crash or "
            "timeout kill").inc()

    @staticmethod
    def _terminate_workers(pool) -> None:
        """Best-effort kill of a pool's worker processes (private API;
        tolerated to fail on future CPython layouts)."""
        try:
            procs = list((pool._processes or {}).values())
        except AttributeError:  # pragma: no cover - layout changed
            return
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass
