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


# -- per-task timeout -------------------------------------------------------

def _hang_on_two(x):
    if x == 2:
        import time
        time.sleep(60)
    return x * 10


def _timeouts_metric():
    from repro.obs import metrics
    return metrics.counter("runner.timeouts",
                           "tasks that hit the per-task timeout").value


def test_sequential_timeout_fails_soft():
    from repro.errors import TaskTimeout
    before = _timeouts_metric()
    results = ParallelRunner(1).map(_hang_on_two, [1, 2, 3], timeout=0.5)
    assert [r.ok for r in results] == [True, False, True]
    assert results[1].timed_out
    assert isinstance(results[1].error, TaskTimeout)
    assert [r.value for r in results if r.ok] == [10, 30]
    assert _timeouts_metric() == before + 1


def test_parallel_timeout_fails_soft_and_terminates_worker():
    from repro.errors import TaskTimeout
    before = _timeouts_metric()
    results = ParallelRunner(3).map(_hang_on_two, [1, 2, 3], timeout=2.0)
    assert len(results) == 3
    assert results[0].ok and results[0].value == 10
    assert results[2].ok and results[2].value == 30
    assert not results[1].ok and results[1].timed_out
    assert isinstance(results[1].error, TaskTimeout)
    assert _timeouts_metric() > before


def test_no_timeout_marks_nothing_timed_out():
    results = ParallelRunner(1).map(_square, [1, 2])
    assert all(not r.timed_out for r in results)


# -- persistent warm pool ----------------------------------------------------

def _worker_pid(_x):
    return os.getpid()


def _exit_hard(x):
    if x == 2:
        os._exit(13)                    # simulate a worker crash
    return x


def _recycles_metric():
    from repro.obs import metrics
    return metrics.counter(
        "runner.worker_recycles",
        "persistent pools recycled after max_tasks_per_worker").value


def _rebuilds_metric():
    from repro.obs import metrics
    return metrics.counter(
        "runner.pool_rebuilds",
        "persistent pools replaced after a worker crash").value


def test_persistent_pool_reuses_workers_across_maps():
    with ParallelRunner(2, persistent=True) as runner:
        first = {r.value for r in runner.map(_worker_pid, range(8))}
        second = {r.value for r in runner.map(_worker_pid, range(8))}
    assert first & second               # same warm processes answered both


def test_non_persistent_runner_rebuilds_the_pool_each_map():
    runner = ParallelRunner(2)
    runner.map(_square, [1])
    assert runner._pool is None         # nothing kept warm


def test_persistent_pool_recycles_after_max_tasks():
    before = _recycles_metric()
    with ParallelRunner(2, persistent=True,
                        max_tasks_per_worker=1) as runner:
        runner.map(_square, [1, 2])     # fills the per-worker budget
        results = runner.map(_square, [3, 4])
    assert [r.value for r in results] == [9, 16]
    assert _recycles_metric() == before + 1


def test_persistent_pool_survives_worker_crash():
    before = _rebuilds_metric()
    with ParallelRunner(2, persistent=True) as runner:
        crashed = runner.map(_exit_hard, [1, 2, 3])
        assert not all(r.ok for r in crashed)          # soft failure...
        after = runner.map(_square, [5, 6])            # ...fresh pool works
    assert [r.value for r in after] == [25, 36]
    assert _rebuilds_metric() > before


def test_close_is_idempotent():
    runner = ParallelRunner(2, persistent=True)
    runner.map(_square, [1])
    runner.close()
    runner.close()
    results = runner.map(_square, [2])  # usable again: pool respawns
    assert results[0].value == 4
    runner.close()


def test_max_tasks_per_worker_validated():
    with pytest.raises(ValueError, match="max_tasks_per_worker"):
        ParallelRunner(2, persistent=True, max_tasks_per_worker=0)
