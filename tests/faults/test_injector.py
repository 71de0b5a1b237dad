"""FaultInjectingSimulator: determinism and per-kind fault effects."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ArchConfig, SimConfig
from repro.faults import FaultInjectingSimulator, FaultPlan, FaultSpec, \
    simulate_with_faults
from repro.faults.campaign import SCENARIOS, build_plan
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate

_FIELDS = ("total_cycles", "sync_stall_cycles", "misspeculations",
           "squashed_threads", "wasted_execution_cycles",
           "invalidation_cycles")


@pytest.fixture
def pipelined(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)


def _run(pipelined, arch, plan, iterations=200, seed=3):
    return simulate_with_faults(pipelined, arch, plan,
                                SimConfig(iterations=iterations, seed=seed))


def test_empty_plan_matches_clean_simulation(pipelined, arch):
    cfg = SimConfig(iterations=200, seed=3)
    clean = simulate(pipelined, arch, cfg)
    faulted, injected = _run(pipelined, arch, FaultPlan())
    assert injected == {}
    for field in _FIELDS:
        assert getattr(faulted, field) == getattr(clean, field), field


def test_same_plan_same_seed_identical(pipelined, arch):
    plan = FaultPlan(seed=7, specs=(
        FaultSpec("violation", probability=0.3, every=2),
        FaultSpec("comm_jitter", probability=0.5, magnitude=3.0),
        FaultSpec("spawn_failure", probability=0.2, magnitude=5.0),
    ))
    a, inj_a = _run(pipelined, arch, plan)
    b, inj_b = _run(pipelined, arch, plan)
    assert inj_a == inj_b
    for field in _FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def test_plan_seed_changes_faults(pipelined, arch):
    spec = FaultSpec("violation", probability=0.4)
    a, _ = _run(pipelined, arch, FaultPlan(seed=1, specs=(spec,)))
    b, _ = _run(pipelined, arch, FaultPlan(seed=2, specs=(spec,)))
    assert (a.misspeculations != b.misspeculations
            or a.total_cycles != b.total_cycles)


def test_forced_violations_squash_and_slow(pipelined, arch):
    clean = simulate(pipelined, arch, SimConfig(iterations=200, seed=3))
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("violation", probability=1.0, every=4),))
    stats, injected = _run(pipelined, arch, plan)
    assert injected["violation"] == 50            # every 4th of 200
    # injected faults come on top of (timing-shifted) organic violations
    assert stats.misspeculations >= 50
    assert stats.misspeculations > clean.misspeculations
    assert stats.invalidation_cycles >= \
        50 * arch.invalidation_overhead
    assert stats.total_cycles > clean.total_cycles


def test_jitter_increases_stalls(pipelined, arch):
    clean = simulate(pipelined, arch, SimConfig(iterations=200, seed=3))
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("comm_jitter", probability=1.0, magnitude=10.0),))
    stats, injected = _run(pipelined, arch, plan)
    assert injected.get("comm_jitter", 0) > 0
    assert stats.sync_stall_cycles > clean.sync_stall_cycles
    assert stats.total_cycles > clean.total_cycles


def test_spawn_failure_delays_start(pipelined, arch):
    clean = simulate(pipelined, arch, SimConfig(iterations=200, seed=3))
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("spawn_failure", probability=1.0, magnitude=20.0),))
    stats, injected = _run(pipelined, arch, plan)
    assert injected["spawn_failure"] == 200
    assert stats.total_cycles > clean.total_cycles


def test_channel_filter_restricts_jitter(pipelined, arch):
    all_ch = FaultPlan(seed=5, specs=(
        FaultSpec("comm_jitter", probability=1.0, magnitude=5.0),))
    one_ch = FaultPlan(seed=5, specs=(
        FaultSpec("comm_jitter", probability=1.0, magnitude=5.0,
                  channels=(0,)),))
    _, inj_all = _run(pipelined, arch, all_ch)
    _, inj_one = _run(pipelined, arch, one_ch)
    assert inj_one.get("comm_jitter", 0) <= inj_all.get("comm_jitter", 0)


def test_probability_zero_injects_nothing(pipelined, arch):
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("violation", probability=0.0),
        FaultSpec("comm_loss", probability=0.0, magnitude=50.0),
    ))
    clean = simulate(pipelined, arch, SimConfig(iterations=200, seed=3))
    stats, injected = _run(pipelined, arch, plan)
    assert injected == {}
    assert stats.total_cycles == clean.total_cycles


def test_injected_tally_resets_per_simulator(pipelined, arch):
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("stall_burst", every=2, magnitude=8.0),))
    sim = FaultInjectingSimulator(pipelined, arch,
                                  SimConfig(iterations=100, seed=3),
                                  plan=plan)
    sim.run()
    first = dict(sim.injected)
    assert first["stall_burst"] == 50
    again = FaultInjectingSimulator(pipelined, arch,
                                    SimConfig(iterations=100, seed=3),
                                    plan=plan)
    again.run()
    assert again.injected == first


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_chaos_scenario_matches_reference_loop(fig1_ddg, fig1_machine,
                                               axpy_ddg, resources, arch,
                                               scenario):
    """With events off a faulted run resolves its threads through the
    per-run memo; it must equal the reference loop
    (``SimConfig(exact=True)``) in every ``SimStats`` field and in the
    injected-fault tally, for each chaos scenario's plan."""
    kernels = (run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch),
               run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch),
               run_postpass(schedule_sms(axpy_ddg, resources), arch))
    for pipelined in kernels:
        for seed in (1, 2, 3):
            plan = build_plan(scenario, seed) or FaultPlan(seed=seed)
            cfg = SimConfig(iterations=400, seed=seed)
            memo = simulate_with_faults(pipelined, arch, plan, cfg)
            exact = simulate_with_faults(pipelined, arch, plan,
                                         replace(cfg, exact=True))
            assert memo == exact, (pipelined.schedule.algorithm, seed)
            assert bool(memo[1]) == (scenario != "baseline")
