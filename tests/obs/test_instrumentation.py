"""End-to-end instrumentation: scheduler search events, simulator
timelines, and deterministic exports."""

import pytest

from repro.config import ArchConfig, SimConfig
from repro.costmodel import objective_f
from repro.obs.export import events_to_jsonl, to_chrome_trace
from repro.obs.telemetry import Telemetry
from repro.sched import (
    ThreadSensitiveScheduler,
    run_postpass,
    schedule_sms,
    schedule_tms,
)
from repro.spmt import simulate


# -- scheduler search events --------------------------------------------------


@pytest.fixture
def tms_search(fig1_ddg, fig1_machine, arch):
    with Telemetry(events=True) as traced:
        sched = schedule_tms(fig1_ddg, fig1_machine, arch)
    return sched, traced.tracer.select("sched", "tms.candidate")


def test_tms_events_reconstruct_enumeration(fig1_ddg, fig1_machine, arch,
                                            tms_search):
    """The candidate events replay `_candidates()`' (II, C_delay)
    enumeration order, exactly and from the start."""
    _sched, events = tms_search
    expected = ThreadSensitiveScheduler(
        fig1_ddg, fig1_machine, arch)._candidates()
    assert len(events) >= 1
    assert [e.args["index"] for e in events] == list(range(len(events)))
    for event, (f_value, cd, ii) in zip(events, expected):
        assert event.args["ii"] == ii
        assert event.args["c_delay"] == cd
        assert event.args["f"] == pytest.approx(f_value)


def test_tms_chosen_pair_minimises_f(arch, tms_search):
    """The accepted pair is the first feasible one in ascending-F order:
    every earlier candidate was rejected or pruned, so the chosen
    (II, C_delay) minimises F over the feasible set."""
    sched, events = tms_search
    assert not sched.meta["fallback"]
    f_values = [e.args["f"] for e in events]
    assert f_values == sorted(f_values)
    accepted = [e for e in events if e.args["outcome"] == "accept"]
    assert len(accepted) == 1 and accepted[0] is events[-1]
    assert all(e.args["outcome"] in ("reject", "pruned")
               for e in events[:-1])
    args = accepted[0].args
    assert args["ii"] == sched.ii
    assert args["c_delay"] == sched.meta["c_delay_threshold"]
    assert args["f"] == pytest.approx(
        objective_f(sched.ii, sched.meta["c_delay_threshold"], arch))


def test_tms_candidate_f_breakdown(arch, tms_search):
    """Each event carries F's four max-terms and F is their maximum."""
    _sched, events = tms_search
    for e in events:
        parts = (e.args["f_c_spn"], e.args["f_c_ci"],
                 e.args["f_c_delay"], e.args["f_t_lb_share"])
        assert e.args["f"] == pytest.approx(max(parts))


def test_sms_place_events_match_schedule(fig1_ddg, fig1_machine):
    with Telemetry(events=True) as traced:
        sched = schedule_sms(fig1_ddg, fig1_machine)
        places = traced.tracer.select("sched", "place")
    final = [e for e in places if e.args["ii"] == sched.ii
             and e.args["alg"] == "SMS"]
    placed = {e.args["node"]: e.args["cycle"] for e in final}
    assert placed == dict(sched.slots)
    for e in final:
        assert e.args["row"] == e.args["cycle"] % sched.ii
        assert e.args["stage"] == e.args["cycle"] // sched.ii


# -- simulator events ---------------------------------------------------------


@pytest.fixture
def sim_trace(fig1_ddg, fig1_machine, arch):
    pipelined = run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)
    with Telemetry(events=True) as traced:
        stats = simulate(pipelined, arch,
                         SimConfig(iterations=200, seed=3))
    return stats, traced.tracer.select("sim")


def test_one_lifecycle_per_thread(sim_trace):
    stats, events = sim_trace
    for name in ("spawn", "exec", "commit"):
        per_thread = [e for e in events if e.name == name]
        assert len(per_thread) == stats.iterations
        assert [e.args["thread"] for e in per_thread] == \
            list(range(stats.iterations))


def test_violation_and_squash_events(sim_trace):
    stats, events = sim_trace
    assert stats.misspeculations > 0  # the fixture must exercise squashes
    violations = [e for e in events if e.name == "violation"]
    squashes = [e for e in events if e.name == "squash"]
    assert len(violations) == stats.misspeculations
    assert len(squashes) == stats.misspeculations
    assert sum(e.args["squashed"] for e in squashes) == \
        stats.squashed_threads
    restarts = sum(e.args["restarts"] for e in events if e.name == "exec")
    assert restarts == stats.misspeculations


def test_recv_stalls_sum_to_stats(sim_trace):
    """recv_stall events cover the committed executions' stalls exactly
    (squashed attempts' stalls are not part of sync_stall_cycles)."""
    stats, events = sim_trace
    stalls = [e for e in events if e.name == "recv_stall"]
    assert sum(e.dur for e in stalls) == pytest.approx(
        stats.sync_stall_cycles)


def test_commits_in_order(sim_trace):
    _stats, events = sim_trace
    ends = [e.ts + e.dur for e in events if e.name == "commit"]
    assert ends == sorted(ends)


def test_events_carry_core_as_tid(sim_trace, arch):
    _stats, events = sim_trace
    for e in events:
        assert e.args["tid"] == e.args["thread"] % arch.ncore


def test_tracing_does_not_perturb_results(fig1_ddg, fig1_machine, arch):
    pipelined = run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)
    cfg = SimConfig(iterations=300, seed=11)
    baseline = simulate(pipelined, arch, cfg)
    with Telemetry(events=True):
        traced = simulate(pipelined, arch, cfg)
    assert traced.total_cycles == baseline.total_cycles
    assert traced.misspeculations == baseline.misspeculations


def test_exports_deterministic_across_runs(fig1_ddg, fig1_machine, arch):
    """Same seed, two runs: byte-identical JSONL and Chrome exports."""
    def one_run():
        pipelined = run_postpass(
            schedule_tms(fig1_ddg, fig1_machine, arch), arch)
        with Telemetry(events=True) as traced:
            simulate(pipelined, arch, SimConfig(iterations=150, seed=5))
            return (events_to_jsonl(traced.tracer.events),
                    to_chrome_trace(traced.tracer.events))
    jsonl_a, chrome_a = one_run()
    jsonl_b, chrome_b = one_run()
    assert jsonl_a == jsonl_b
    assert chrome_a == chrome_b


def test_no_speculation_arch_has_no_violation_events(fig1_ddg, fig1_machine):
    arch = ArchConfig(ncore=4)
    pipelined = run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)
    with Telemetry(events=True) as traced:
        stats = simulate(pipelined, arch, SimConfig(iterations=50, seed=0))
    assert len(traced.tracer.select("sim", "violation")) == stats.misspeculations
