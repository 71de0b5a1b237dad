"""Thread-sensitive modulo scheduling."""

import pytest

import repro.sched.tms as tms_mod
from repro.config import ArchConfig, SchedulerConfig
from repro.costmodel import (
    achieved_c_delay,
    estimate_execution_time,
    kernel_misspec_probability,
    sync_delay,
)
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.obs.telemetry import Telemetry
from repro.sched import (
    ThreadSensitiveScheduler,
    schedule_sms,
    schedule_tms,
    validate_schedule,
)
from repro.workloads import DOACROSS_LOOPS


def test_motivating_anchor(fig1_ddg, fig1_machine, arch):
    # TMS collapses the motivating example's sync delay from 11 to 4 at
    # the same II = MII = 8 (the paper reaches 5 with slightly different
    # resource details; the shape — a ~2-3x reduction at unchanged II —
    # is the anchor)
    tms = schedule_tms(fig1_ddg, fig1_machine, arch)
    assert tms.ii == 8
    assert achieved_c_delay(tms, arch) <= 5.0
    validate_schedule(tms, fig1_machine)


def test_c1_threshold_respected(fig1_ddg, fig1_machine, arch):
    tms = schedule_tms(fig1_ddg, fig1_machine, arch)
    threshold = tms.meta["c_delay_threshold"]
    for e in tms.inter_iteration_register_deps():
        assert sync_delay(tms, e, arch.reg_comm_latency) <= threshold + 1e-9


def test_c2_threshold_respected(fig1_ddg, fig1_machine, arch):
    cfg = SchedulerConfig(p_max=0.05)
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg).schedule()
    if not tms.meta["fallback"]:
        assert kernel_misspec_probability(tms, arch) <= cfg.p_max + 1e-9


def test_tms_never_beats_mii(axpy_ddg, resources, arch):
    tms = schedule_tms(axpy_ddg, resources, arch)
    s = ThreadSensitiveScheduler(axpy_ddg, resources, arch)
    assert tms.ii >= s.mii


def test_tms_cdelay_leq_sms(fig1_ddg, fig1_machine, arch):
    sms = schedule_sms(fig1_ddg, fig1_machine)
    tms = schedule_tms(fig1_ddg, fig1_machine, arch)
    assert achieved_c_delay(tms, arch) <= achieved_c_delay(sms, arch)


def test_strict_pmax_forces_preservation_or_big_cd(fig1_ddg, fig1_machine, arch):
    # with P_max = 0 every inter-thread memory dependence must be preserved
    cfg = SchedulerConfig(p_max=0.0)
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg).schedule()
    if not tms.meta["fallback"]:
        assert kernel_misspec_probability(tms, arch) == pytest.approx(0.0)


def test_pmax_trades_cdelay(fig1_ddg, fig1_machine, arch):
    loose = ThreadSensitiveScheduler(
        fig1_ddg, fig1_machine, arch, SchedulerConfig(p_max=1.0)).schedule()
    strict = ThreadSensitiveScheduler(
        fig1_ddg, fig1_machine, arch, SchedulerConfig(p_max=0.0)).schedule()
    # stricter speculation control can only cost C_delay/II, never help
    assert (achieved_c_delay(strict, arch), strict.ii) >= \
        (achieved_c_delay(loose, arch) - 1e-9, loose.ii)


def test_no_speculation_mode(fig1_ddg, fig1_machine, arch):
    cfg = SchedulerConfig(speculation=False)
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg).schedule()
    validate_schedule(tms, fig1_machine)
    # achieved C_delay now includes the synchronised memory dependences
    cd_all = achieved_c_delay(tms, arch, include_memory=True)
    assert cd_all <= tms.meta["c_delay_threshold"] + 1e-9


def test_no_speculation_mode_reports_no_misspeculation(
        fig1_ddg, fig1_machine, arch):
    """With every memory dependence synchronised nothing is speculated:
    ``meta["p_m"]`` is the model's 0, not the speculated kernel's 0.0443
    (``n5 -> n0/n2/n3``)."""
    cfg = SchedulerConfig(speculation=False)
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg).schedule()
    assert tms.meta["p_m"] == 0.0
    assert estimate_execution_time(tms, arch, 100,
                                   synchronize_memory=True).p_m == 0.0


def test_try_p_max_values(fig1_ddg, fig1_machine, arch):
    cfg = SchedulerConfig(try_p_max_values=True,
                          p_max_candidates=(0.0, 0.05, 1.0))
    tms = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch, cfg).schedule()
    validate_schedule(tms, fig1_machine)
    assert tms.meta["p_max"] in (0.0, 0.05, 1.0)


def test_objective_monotone_in_candidates(fig1_ddg, fig1_machine, arch):
    s = ThreadSensitiveScheduler(fig1_ddg, fig1_machine, arch)
    cands = s._candidates()
    fs = [f for f, _cd, _ii in cands]
    assert fs == sorted(fs)


def test_meta_fields(fig1_ddg, fig1_machine, arch):
    tms = schedule_tms(fig1_ddg, fig1_machine, arch)
    for key in ("mii", "ldp", "c_delay_threshold", "p_max", "objective_f",
                "fallback", "achieved_c_delay", "p_m"):
        assert key in tms.meta


@pytest.mark.parametrize("budget", [40, 4100])
def test_max_candidates_is_the_whole_budget(budget, monkeypatch):
    """The search walks exactly ``MAX_CANDIDATES`` (II, C_delay) pairs,
    pruned ones included, before it falls back to first-fit placement — also
    above 4,000.  lucas_fft fails every pair either budget reaches."""
    monkeypatch.setattr(tms_mod, "MAX_CANDIDATES", budget)
    arch = ArchConfig.paper_default()
    (loop,) = [sl.loop for sl in DOACROSS_LOOPS if sl.loop.name == "lucas_fft"]
    ddg = build_ddg(loop, LatencyModel.for_arch(arch))
    with Telemetry(events=True) as traced:
        sched = ThreadSensitiveScheduler(
            ddg, ResourceModel.default(arch.issue_width), arch
        ).schedule()
    walked = [e for e in traced.tracer.events if e.name == "tms.candidate"]
    (done,) = [e for e in traced.tracer.events if e.name == "tms.budget_exhausted"]
    assert len(walked) == done.args["attempts"] == budget
    assert sched.meta["fallback"]
