"""ParallelRunner: deterministic ordering, soft failure, jobs resolution."""

from __future__ import annotations

import os

import pytest

from repro.session import ParallelRunner, TaskResult, resolve_jobs


def _square(x):
    return x * x


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


def test_resolve_jobs_default_is_sequential(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs() == 1


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3
    assert resolve_jobs(2) == 2          # explicit argument wins


def test_resolve_jobs_negative_means_all_cores(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(-1) == (os.cpu_count() or 1)


def test_resolve_jobs_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        resolve_jobs()


def test_sequential_map_preserves_order():
    results = ParallelRunner(1).map(_square, [3, 1, 2])
    assert [r.value for r in results] == [9, 1, 4]
    assert all(r.ok for r in results)
    assert [r.index for r in results] == [0, 1, 2]


def test_parallel_map_matches_sequential():
    items = list(range(12))
    seq = ParallelRunner(1).map(_square, items)
    par = ParallelRunner(4).map(_square, items)
    assert [r.value for r in par] == [r.value for r in seq]


def test_error_captured_per_task():
    results = ParallelRunner(1).map(_fail_on_three, [1, 3, 5])
    assert [r.ok for r in results] == [True, False, True]
    assert isinstance(results[1].error, ValueError)
    assert "three is right out" in results[1].error_traceback
    with pytest.raises(RuntimeError):
        results[1].unwrap()


def test_on_error_raise():
    with pytest.raises(RuntimeError):
        ParallelRunner(1).map(_fail_on_three, [3], on_error="raise")


def test_parallel_error_capture():
    results = ParallelRunner(2).map(_fail_on_three, [1, 3, 2, 4])
    assert [r.ok for r in results] == [True, False, True, True]
    assert [r.value for r in results if r.ok] == [1, 2, 4]


def test_empty_items():
    assert ParallelRunner(4).map(_square, []) == []


def test_invalid_on_error():
    with pytest.raises(ValueError):
        ParallelRunner(1).map(_square, [1], on_error="explode")


def test_task_result_unwrap_value():
    assert TaskResult(index=0, value=42).unwrap() == 42


def _crash_on_two(x):
    if x == 2:
        os._exit(13)          # hard worker death, not an exception
    return x * 10


def _sleep_inverse(x):
    import time
    time.sleep(0.05 * (3 - x))
    return x


def test_worker_hard_crash_is_soft_failure():
    # a worker dying mid-task (os._exit) must not kill the sweep: the
    # pool failure is captured per task and map() still returns one
    # ordered TaskResult per input.
    results = ParallelRunner(2).map(_crash_on_two, [1, 2, 3, 4])
    assert len(results) == 4
    assert [r.index for r in results] == [0, 1, 2, 3]
    assert not results[1].ok
    assert results[1].error is not None
    failed = [r for r in results if not r.ok]
    assert failed                      # the crash surfaced somewhere
    # every task that did complete holds its correct value
    for r in results:
        if r.ok:
            assert r.value == (r.index + 1) * 10


def test_worker_crash_on_error_raise_reports_first_failure():
    with pytest.raises(RuntimeError, match="task "):
        ParallelRunner(2).map(_crash_on_two, [2, 1], on_error="raise")


def test_parallel_results_ordered_despite_completion_order():
    # task 0 sleeps longest, so completion order inverts input order
    results = ParallelRunner(3).map(_sleep_inverse, [0, 1, 2])
    assert [r.value for r in results] == [0, 1, 2]
    assert all(r.ok for r in results)


def test_pool_broken_at_submit_is_soft_failure(monkeypatch):
    # a worker that dies while the batch is still being submitted makes
    # submit() raise BrokenProcessPool: the unsubmitted tasks fail soft
    import concurrent.futures
    from concurrent.futures.process import BrokenProcessPool

    class BreaksOnSecondSubmit(concurrent.futures.ProcessPoolExecutor):
        submitted = 0

        def submit(self, *args, **kwargs):
            type(self).submitted += 1
            if type(self).submitted > 1:
                raise BrokenProcessPool("a worker died")
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        BreaksOnSecondSubmit)
    results = ParallelRunner(2).map(_square, [3, 4, 5])
    assert [r.index for r in results] == [0, 1, 2]
    assert results[0].ok and results[0].value == 9
    assert [isinstance(r.error, BrokenProcessPool)
            for r in results[1:]] == [True, True]
