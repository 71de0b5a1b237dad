"""SpMT multicore simulator."""

import pytest

from repro.config import ArchConfig, SimConfig
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate


@pytest.fixture
def fig1_pipelined_sms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)


@pytest.fixture
def fig1_pipelined_tms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)


def test_deterministic(fig1_pipelined_sms, arch):
    cfg = SimConfig(iterations=300, seed=11)
    s1 = simulate(fig1_pipelined_sms, arch, cfg)
    s2 = simulate(fig1_pipelined_sms, arch, cfg)
    assert s1.total_cycles == s2.total_cycles
    assert s1.misspeculations == s2.misspeculations


def test_seed_changes_violations(fig1_pipelined_tms, arch):
    a = simulate(fig1_pipelined_tms, arch, SimConfig(iterations=500, seed=1))
    b = simulate(fig1_pipelined_tms, arch, SimConfig(iterations=500, seed=2))
    assert a.misspeculations != b.misspeculations or \
        a.total_cycles != b.total_cycles


def test_throughput_bounds(fig1_pipelined_sms, arch):
    n = 1000
    stats = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=n))
    # cannot beat perfect core-parallel issue of the kernel
    assert stats.total_cycles >= n * fig1_pipelined_sms.ii / arch.ncore
    # and cannot be worse than fully serial execution with overheads
    serial = n * (fig1_pipelined_sms.schedule.span
                  + arch.spawn_overhead + arch.commit_overhead
                  + arch.invalidation_overhead + 50)
    assert stats.total_cycles <= serial


def test_tms_beats_sms_on_motivating(fig1_pipelined_sms, fig1_pipelined_tms, arch):
    cfg = SimConfig(iterations=1000)
    sms = simulate(fig1_pipelined_sms, arch, cfg)
    tms = simulate(fig1_pipelined_tms, arch, cfg)
    assert tms.total_cycles < sms.total_cycles


def test_more_cores_help(fig1_pipelined_tms):
    cfg = SimConfig(iterations=500)
    t2 = simulate(fig1_pipelined_tms, ArchConfig(ncore=2), cfg)
    t4 = simulate(fig1_pipelined_tms, ArchConfig(ncore=4), cfg)
    assert t4.total_cycles <= t2.total_cycles


def test_stats_accounting(fig1_pipelined_sms, arch):
    n = 400
    stats = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=n))
    assert stats.iterations == n
    assert stats.send_recv_pairs == \
        fig1_pipelined_sms.comm.pairs_per_iteration * n
    assert stats.spawn_cycles == arch.spawn_overhead * n
    assert stats.commit_cycles == arch.commit_overhead * n
    assert stats.communication_overhead == pytest.approx(
        stats.sync_stall_cycles
        + arch.reg_comm_latency * stats.send_recv_pairs)


def test_misspeculation_costs_cycles(fig1_pipelined_tms, arch):
    clean_arch = ArchConfig(invalidation_overhead=0)
    n = 2000
    base = simulate(fig1_pipelined_tms, arch, SimConfig(iterations=n))
    assert base.misspeculations > 0  # probabilities make some inevitable
    assert base.squashed_threads >= base.misspeculations
    assert base.invalidation_cycles == \
        base.misspeculations * arch.invalidation_overhead


def test_single_iteration(fig1_pipelined_sms, arch):
    stats = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=1))
    # one thread = one kernel execution (II rows) plus commit
    assert stats.total_cycles >= fig1_pipelined_sms.ii


def test_summary_text(fig1_pipelined_sms, arch):
    stats = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=10))
    assert "cycles" in stats.summary()


def test_cache_misses_slow_execution(fig1_pipelined_sms):
    from repro.config import ArchConfig, SimConfig
    from repro.spmt import simulate
    fast = ArchConfig.paper_default()
    slow = ArchConfig(l1_miss_rate=0.5, l2_miss_rate=0.5)
    cfg = SimConfig(iterations=400, seed=9)
    t_fast = simulate(fig1_pipelined_sms, fast, cfg)
    t_slow = simulate(fig1_pipelined_sms, slow, cfg)
    assert t_slow.total_cycles > t_fast.total_cycles
    # every L1 miss rate step slows the equake TMS kernel (the scheduler
    # still plans for L1 hits, as the paper's compiler does)
    from repro.session import get_session
    from repro.workloads import selected_loops
    loop = selected_loops("equake")[0].loop
    pipelined = get_session().compile(loop).tms.pipelined
    cpis = [simulate(pipelined,
                     ArchConfig(l1_miss_rate=l1_miss, l2_miss_rate=0.1),
                     SimConfig(iterations=250)).cycles_per_iteration
            for l1_miss in (0.0, 0.05, 0.2)]
    assert cpis[0] < cpis[1] < cpis[2], cpis


def test_cache_draws_deterministic(fig1_pipelined_sms):
    from repro.config import ArchConfig, SimConfig
    from repro.spmt import simulate
    arch = ArchConfig(l1_miss_rate=0.3)
    cfg = SimConfig(iterations=300, seed=4)
    a = simulate(fig1_pipelined_sms, arch, cfg)
    b = simulate(fig1_pipelined_sms, arch, cfg)
    assert a.total_cycles == b.total_cycles


def test_cache_same_seed_identical_stats(fig1_pipelined_sms):
    """The probabilistic cache is fully seeded: every counter repeats."""
    arch = ArchConfig(l1_miss_rate=0.4, l2_miss_rate=0.5)
    cfg = SimConfig(iterations=300, seed=21)
    a = simulate(fig1_pipelined_sms, arch, cfg)
    b = simulate(fig1_pipelined_sms, arch, cfg)
    for field in ("total_cycles", "sync_stall_cycles", "misspeculations",
                  "squashed_threads", "wasted_execution_cycles",
                  "invalidation_cycles"):
        assert getattr(a, field) == getattr(b, field), field


def test_cache_seed_changes_stall_totals(fig1_pipelined_sms):
    arch = ArchConfig(l1_miss_rate=0.4, l2_miss_rate=0.5)
    a = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=300, seed=1))
    b = simulate(fig1_pipelined_sms, arch, SimConfig(iterations=300, seed=2))
    assert (a.sync_stall_cycles != b.sync_stall_cycles
            or a.total_cycles != b.total_cycles)


def test_zero_miss_rate_draws_nothing(fig1_pipelined_sms):
    from repro.spmt.sim import SpMTSimulator
    deterministic = SpMTSimulator(fig1_pipelined_sms,
                                  ArchConfig.paper_default())
    assert deterministic._cache is None
    assert deterministic._draw_cache_extra() is None
    probabilistic = SpMTSimulator(fig1_pipelined_sms,
                                  ArchConfig(l1_miss_rate=0.9))
    extra = probabilistic._draw_cache_extra()
    assert extra is not None and any(e > 0 for e in extra)


def test_missed_load_sends_its_value_after_the_miss():
    """A cache miss lengthens a load for its consumers in later threads
    too: a channel whose producer is a load delivers the value when the
    missed load completes, as its in-thread dependents see it."""
    from repro.graph import build_ddg
    from repro.machine import LatencyModel, ResourceModel
    from repro.spmt.sim import SpMTSimulator
    from repro.workloads import kernel_by_name

    arch = ArchConfig(l1_miss_rate=1.0, l2_miss_rate=0.0)
    ddg = build_ddg(kernel_by_name("daxpy"), LatencyModel.for_arch(arch))
    pipelined = run_postpass(
        schedule_sms(ddg, ResourceModel.default(arch.issue_width)), arch)
    sim = SpMTSimulator(pipelined, arch, SimConfig(seed=1))
    template = sim.template
    timing = sim._execute(0, 0.0, {})
    miss = arch.l2_hit_latency - arch.l1_hit_latency
    from_loads = 0
    for ci, ch in enumerate(template.channels):
        i = ch.producer_index
        done = timing.issue_rel[i] + float(template.latency[i])
        if ddg.node(ch.producer).opcode.is_load:
            done += miss
            from_loads += 1
        assert timing.completion_time(template, ch.producer) == done
        assert timing.value_arrival(template, ci) == \
            done + ch.hops * arch.reg_comm_latency
    assert from_loads


def test_squash_counts_wasted_spawn_work(fig1_pipelined_tms, arch):
    """More-speculative threads' partial executions are charged to
    wasted_execution_cycles (estimated from the spawn chain), so the
    wasted total at least covers the violated threads' own work."""
    stats = simulate(fig1_pipelined_tms, arch, SimConfig(iterations=2000))
    assert stats.misspeculations > 0
    assert stats.squashed_threads >= stats.misspeculations
    assert stats.squashed_threads <= stats.misspeculations * arch.ncore
    assert stats.wasted_execution_cycles > 0
