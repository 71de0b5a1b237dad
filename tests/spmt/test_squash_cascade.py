"""Squash cascade edge cases, driven through deterministic fault
injection: violation on the most-speculative thread, back-to-back
violations on one thread, detection during the commit window, and a
full cascade storm — each also checked against the trace sanitizer.

Uses the axpy kernel: its memory dependences are all affine (strong
SIV), so the clean run has *zero* organic misspeculations and every
violation below is attributable to the plan."""

from __future__ import annotations

import pytest

from repro.config import SimConfig
from repro.faults import FaultInjectingSimulator, FaultPlan, FaultSpec, \
    sanitize_events
from repro.obs.telemetry import Telemetry
from repro.sched import run_postpass, schedule_sms
from repro.spmt import simulate


@pytest.fixture
def axpy_pipelined(axpy_ddg, resources, arch):
    return run_postpass(schedule_sms(axpy_ddg, resources), arch)


def _run_sanitized(pipelined, arch, plan, iterations=40):
    sim = FaultInjectingSimulator(
        pipelined, arch, SimConfig(iterations=iterations, seed=2), plan=plan)
    with Telemetry(events=True) as traced:
        stats = sim.run()
        findings = sanitize_events(traced.tracer.events, arch, stats=stats)
    assert findings == [], [str(f) for f in findings]
    return stats, dict(sim.injected)


def test_axpy_clean_run_has_no_organic_violations(axpy_pipelined, arch):
    stats = simulate(axpy_pipelined, arch, SimConfig(iterations=40, seed=2))
    assert stats.misspeculations == 0


def test_most_speculative_thread_squashes_only_itself(axpy_pipelined, arch):
    """A violation on the last thread has nothing more speculative in
    flight: exactly one thread squashed, even with late detection."""
    n = 40
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("violation", threads=(n - 1,), detect_frac=2.0),))
    stats, injected = _run_sanitized(axpy_pipelined, arch, plan,
                                     iterations=n)
    assert injected["violation"] == 1
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1


def test_back_to_back_violations_same_thread(axpy_pipelined, arch):
    """One thread violated on three consecutive attempts pays three
    invalidations and then clears (max_per_thread bounds the storm)."""
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("violation", threads=(5,), max_per_thread=3),))
    stats, injected = _run_sanitized(axpy_pipelined, arch, plan)
    assert injected["violation"] == 3
    assert stats.misspeculations == 3
    assert stats.invalidation_cycles == 3 * arch.invalidation_overhead
    assert stats.squashed_threads >= 3
    assert stats.wasted_execution_cycles > 0


def test_violation_during_commit_window(axpy_pipelined, arch):
    """detect_frac > 1 places detection past the thread's own execution
    span (i.e. while it is waiting to commit); the squash radius grows
    but stays within [1, ncore] and the trace still sanitizes."""
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("violation", threads=(8,), detect_frac=1.5),))
    stats, injected = _run_sanitized(axpy_pipelined, arch, plan)
    assert injected["violation"] == 1
    assert 1 <= stats.squashed_threads <= arch.ncore


def test_cascade_storm_every_thread(axpy_pipelined, arch):
    """Every thread violated once: n misspeculations, n invalidations,
    commit order and accounting still intact."""
    n = 30
    plan = FaultPlan(seed=1, specs=(FaultSpec("violation", every=1),))
    stats, injected = _run_sanitized(axpy_pipelined, arch, plan,
                                     iterations=n)
    assert injected["violation"] == n
    assert stats.misspeculations == n
    assert stats.invalidation_cycles == n * arch.invalidation_overhead
    assert stats.squashed_threads >= n


def test_cascade_slowdown_monotone_in_detection_time(axpy_pipelined, arch):
    """Later detection wastes more work: wasted cycles grow with
    detect_frac, everything else equal."""
    wasted = []
    for frac in (0.25, 1.0, 1.75):
        plan = FaultPlan(seed=1, specs=(
            FaultSpec("violation", every=4, detect_frac=frac),))
        stats, _ = _run_sanitized(axpy_pipelined, arch, plan)
        wasted.append(stats.wasted_execution_cycles)
    assert wasted[0] < wasted[1] < wasted[2]
