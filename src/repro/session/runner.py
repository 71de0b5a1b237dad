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

Its one caller is :class:`~repro.session.session.Session`'s batch
calls.  The worker count is the explicit argument, else 1 (sequential);
``-1`` means every core.  A batch runs inline in the calling process
when ``min(jobs, len(items)) <= 1`` — same code path, no pickling,
exceptions still captured — which keeps the cache counters of the
calling session exact.  Otherwise it runs on a fresh process pool that
is shut down before ``map`` returns.
"""

from __future__ import annotations

import concurrent.futures
import concurrent.futures.process
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import metrics, telemetry
from ..obs.telemetry import Telemetry

__all__ = ["ParallelRunner", "TaskResult", "resolve_jobs"]


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: ``None`` is 1, a negative count every
    core."""
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
    #: resolved worker count (populated on construction)
    resolved_jobs: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.resolved_jobs = resolve_jobs(self.jobs)

    def workers_for(self, n_items: int) -> int:
        """Worker processes a ``map`` over ``n_items`` items uses;
        ``<= 1`` means it runs in-process."""
        return min(self.resolved_jobs, n_items)

    def map(self, fn: Callable[[Any], Any], items: Sequence[Any],
            *, on_error: str = "capture") -> list[TaskResult]:
        """Run ``fn(item)`` for every item; results come back in input
        order.

        ``on_error="capture"`` (default) returns failed tasks as
        :class:`TaskResult`\\ s with ``ok == False``;
        ``on_error="raise"`` re-raises the first failure (by input
        order) after all tasks have been given the chance to run.
        """
        if on_error not in ("capture", "raise"):
            raise ValueError(f"on_error must be 'capture' or 'raise', "
                             f"got {on_error!r}")
        items = list(items)
        workers = self.workers_for(len(items))
        metrics.counter("runner.tasks", "tasks dispatched").inc(len(items))
        if workers <= 1:
            results = [_call(fn, i, item) for i, item in enumerate(items)]
        else:
            results = _run_parallel(fn, items, workers)
        context = telemetry.current()
        for res in results:
            if res.telemetry is not None:
                # merged in input order, so a --jobs N trace replays
                # byte-identical to --jobs 1
                context.merge(res.telemetry)
                res.telemetry = None
        metrics.counter("runner.failures", "tasks that raised").inc(
            sum(1 for r in results if not r.ok))
        if on_error == "raise":
            for res in results:
                if not res.ok:
                    res.unwrap()
        return results


def _run_parallel(fn: Callable[[Any], Any], items: list[Any],
                  workers: int) -> list[TaskResult]:
    """Run every task on a fresh process pool, shut down before
    returning.  A worker's hard crash breaks the pool
    (``BrokenProcessPool``, raised at submit or at result time); the
    tasks it takes down fail soft like any other."""
    switches = telemetry.current().switches()
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        futures = []
        for i, item in enumerate(items):
            try:
                fut = pool.submit(_traced_call, fn, i, item, switches)
            except concurrent.futures.process.BrokenProcessPool as exc:
                fut = concurrent.futures.Future()
                fut.set_exception(exc)
            futures.append(fut)
        results = []
        for i, fut in enumerate(futures):
            try:
                results.append(fut.result())
            except Exception as exc:  # pool/pickling failure
                results.append(TaskResult(
                    index=i, error=exc,
                    error_traceback=traceback.format_exc()))
        return results
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
