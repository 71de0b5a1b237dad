"""Graceful scheduler degradation: sequential fallback and the
TMS -> SMS -> IMS -> SEQ chain."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.obs import metrics
from repro.sched.degrade import schedule_sequential_fallback, \
    schedule_with_degradation
from repro.sched.schedule import validate_schedule
from repro.sched.tms import ThreadSensitiveScheduler, schedule_tms


@pytest.fixture
def failing_tms(monkeypatch):
    """A TMS search that fails on every loop."""
    def fail(self):
        raise SchedulingError(f"TMS failed on {self.ddg.name!r}")
    monkeypatch.setattr(ThreadSensitiveScheduler, "schedule", fail)


class TestSequentialFallback:
    def test_valid_schedule(self, fig1_ddg, fig1_machine):
        sched = schedule_sequential_fallback(fig1_ddg, fig1_machine)
        validate_schedule(sched, fig1_machine)
        assert sched.algorithm == "SEQ"
        assert sched.ii == max(sched.meta["span"], 1)

    def test_valid_on_recurrent_loop(self, recurrent_ddg, resources):
        sched = schedule_sequential_fallback(recurrent_ddg, resources)
        validate_schedule(sched, resources)

    def test_ii_at_least_tms(self, fig1_ddg, fig1_machine, arch):
        """SEQ has no overlap: its II can never beat the real schedulers."""
        seq = schedule_sequential_fallback(fig1_ddg, fig1_machine)
        tms = schedule_tms(fig1_ddg, fig1_machine, arch)
        assert seq.ii >= tms.ii


class TestDegradationChain:
    def test_no_degradation_when_tms_succeeds(self, fig1_ddg, fig1_machine,
                                              arch):
        sched = schedule_with_degradation(fig1_ddg, fig1_machine, arch)
        assert sched.algorithm == "TMS"
        assert "degraded_from" not in sched.meta

    def test_tms_failure_degrades_to_sms(self, fig1_ddg, fig1_machine,
                                         arch, failing_tms):
        counter = metrics.counter(
            "sched.degraded",
            "schedules produced by a degradation fallback")
        before = counter.value
        sched = schedule_with_degradation(fig1_ddg, fig1_machine, arch)
        assert sched.meta["degraded_from"] == "TMS"
        assert sched.meta["degraded_to"] == "SMS"
        assert sched.meta["degradation_reason"].startswith("TMS: ")
        assert sched.algorithm == "SMS"
        validate_schedule(sched, fig1_machine)
        assert counter.value == before + 1

    def test_degraded_schedule_still_simulates(self, fig1_ddg, fig1_machine,
                                               arch, failing_tms):
        from repro.config import SimConfig
        from repro.sched import run_postpass
        from repro.spmt import simulate
        sched = schedule_with_degradation(fig1_ddg, fig1_machine, arch)
        pipelined = run_postpass(sched, arch)
        stats = simulate(pipelined, arch, SimConfig(iterations=50))
        assert stats.total_cycles > 0
