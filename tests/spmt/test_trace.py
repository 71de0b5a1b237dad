"""The per-thread timeline, as the simulator's ``sim`` events record it
(one ``exec`` and one ``commit`` event per committed thread)."""

from typing import NamedTuple

import pytest

from repro.config import SimConfig
from repro.obs.telemetry import Telemetry
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate


class Thread(NamedTuple):
    index: int
    core: int
    start: float
    finish: float
    commit: float
    stall_cycles: float
    restarts: int


def _traced(pipelined, arch, cfg):
    """``(stats, threads)``: the run's statistics and its committed
    threads in commit order, read from its ``sim`` events."""
    with Telemetry(events=True) as traced:
        stats = simulate(pipelined, arch, cfg)
    commits = traced.tracer.select("sim", "commit")
    threads = [
        Thread(index=ex.args["thread"], core=ex.args["tid"], start=ex.ts,
               finish=ex.ts + ex.dur, commit=co.ts + co.dur,
               stall_cycles=ex.args["stall"], restarts=ex.args["restarts"])
        for ex, co in zip(traced.tracer.select("sim", "exec"), commits,
                          strict=True)]
    assert [t.index for t in threads] == \
        [co.args["thread"] for co in commits]
    return stats, threads


@pytest.fixture
def traced_stats(fig1_ddg, fig1_machine, arch):
    pipelined = run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)
    return _traced(pipelined, arch, SimConfig(iterations=64))


def test_one_record_per_thread(traced_stats):
    _stats, threads = traced_stats
    assert [t.index for t in threads] == list(range(64))


def test_round_robin_cores(traced_stats, arch):
    for thread in traced_stats[1]:
        assert thread.core == thread.index % arch.ncore


def test_timeline_ordering(traced_stats):
    threads = traced_stats[1]
    for t in threads:
        assert t.start <= t.finish <= t.commit
    # in-order commit
    commits = [t.commit for t in threads]
    assert commits == sorted(commits)
    # spawn chain: starts are non-decreasing
    starts = [t.start for t in threads]
    assert starts == sorted(starts)


def test_stall_accounting_matches_stats(traced_stats):
    stats, threads = traced_stats
    assert sum(t.stall_cycles for t in threads) == \
        pytest.approx(stats.sync_stall_cycles)


def test_restart_accounting(traced_stats):
    stats, threads = traced_stats
    assert sum(t.restarts for t in threads) == stats.misspeculations


def test_trace_off_by_default(fig1_ddg, fig1_machine, arch):
    pipelined = run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)
    with Telemetry() as untraced:
        simulate(pipelined, arch, SimConfig(iterations=16))
    assert untraced.tracer.events == []


# -- timelines under squash/re-execute ---------------------------------------


@pytest.fixture
def squashed_stats(fig1_ddg, fig1_machine, arch):
    """A TMS run long enough that violations (and hence squash +
    re-execute rounds) are guaranteed to occur."""
    pipelined = run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)
    return _traced(pipelined, arch, SimConfig(iterations=2000, seed=1))


def test_squashes_occurred(squashed_stats):
    stats, threads = squashed_stats
    assert stats.misspeculations > 0
    assert any(t.restarts > 0 for t in threads)


def test_restarted_threads_keep_valid_timeline(squashed_stats):
    for t in squashed_stats[1]:
        assert t.start <= t.finish <= t.commit


def test_per_core_monotonic_under_restarts(squashed_stats, arch):
    """A core runs its threads strictly in order even when some of them
    are squashed and re-executed: starts and commits never interleave."""
    by_core = {c: [] for c in range(arch.ncore)}
    for t in squashed_stats[1]:
        by_core[t.core].append(t)
    for threads in by_core.values():
        starts = [t.start for t in threads]
        commits = [t.commit for t in threads]
        assert starts == sorted(starts)
        assert commits == sorted(commits)
        # a core never starts iteration j before committing iteration
        # j - ncore (the double-buffered core becomes free at commit)
        for prev, nxt in zip(threads, threads[1:]):
            assert nxt.start >= prev.commit


def test_stall_accounting_with_restarts(squashed_stats):
    """Committed executions' stalls still sum exactly to the aggregate,
    i.e. squashed attempts' stalls are excluded from both."""
    stats, threads = squashed_stats
    assert sum(t.stall_cycles for t in threads) == \
        pytest.approx(stats.sync_stall_cycles)


def test_restart_totals_with_restarts(squashed_stats):
    stats, threads = squashed_stats
    assert sum(t.restarts for t in threads) == stats.misspeculations
