"""Steady-state fast path: differential oracle, detector gating, and the
event-loop bugfixes that rode along (spawn-chain estimate, lazy cache rng).
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.spmt.sim as sim_mod
from repro.config import ArchConfig, SimConfig
from repro.errors import SimulationError
from repro.graph import build_ddg
from repro.obs import metrics
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate
from repro.spmt.channels import ThreadTiming
from repro.spmt.fastpath import SteadyStateDetector
from repro.spmt.sim import SpMTSimulator
from repro.spmt.violations import RealisationTable
from repro.workloads import LoopShape, SyntheticLoopGenerator


@pytest.fixture
def fig1_pipelined_sms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)


@pytest.fixture
def axpy_pipelined(axpy_ddg, resources, arch):
    """Speculation-free kernel: any misspeculation is one we forced."""
    return run_postpass(schedule_sms(axpy_ddg, resources), arch)


@pytest.fixture
def fig1_pipelined_tms(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch), arch)


def _both(pipelined, arch, **sim_kwargs):
    fast = simulate(pipelined, arch, SimConfig(**sim_kwargs))
    exact = simulate(pipelined, arch, SimConfig(exact=True, **sim_kwargs))
    return fast, exact


# -- differential oracle -----------------------------------------------------


@pytest.mark.parametrize("iterations", [1, 7, 60, 500, 5000])
@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_fast_matches_exact_sms(fig1_pipelined_sms, arch, iterations, seed):
    fast, exact = _both(fig1_pipelined_sms, arch,
                        iterations=iterations, seed=seed)
    assert fast == exact


@pytest.mark.parametrize("iterations", [60, 500, 5000])
@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_fast_matches_exact_tms(fig1_pipelined_tms, arch, iterations, seed):
    """TMS kernels carry manifest-unsafe speculated dependences, so skips
    must stop exactly at each violating thread."""
    fast, exact = _both(fig1_pipelined_tms, arch,
                        iterations=iterations, seed=seed)
    assert fast == exact


@pytest.mark.parametrize("arch_variant", [
    ArchConfig(ncore=2),
    ArchConfig(ncore=8),
    ArchConfig(spawn_overhead=0),
    ArchConfig(reg_comm_latency=7, commit_overhead=0),
    ArchConfig.single_core(),
])
def test_fast_matches_exact_arch_grid(fig1_pipelined_tms, arch_variant):
    fast, exact = _both(fig1_pipelined_tms, arch_variant,
                        iterations=900, seed=5)
    assert fast == exact


def test_fastforward_engages_and_is_counted(axpy_pipelined, arch):
    counter = metrics.counter("sim.fastforward_threads",
                              "threads skipped analytically")
    before = counter.value
    fast, exact = _both(axpy_pipelined, arch, iterations=20_000)
    assert fast == exact
    # spec-free kernel: one clean skip covers nearly the whole run
    assert counter.value - before > 15_000


def test_memoised_resolution_matches_resolve_per_call(fig1_pipelined_tms,
                                                      monkeypatch):
    """Lockstep over every resolved thread: each timing the default path
    returns (memoised on the relative arrivals, translated to its start)
    equals ``ThreadTiming.resolve`` at the same start and arrivals — with
    the detector off (fractional C_spn: every thread resolves) and on —
    and the whole run equals the reference loop's."""
    perturb = SpMTSimulator._perturb_arrivals
    execute = SpMTSimulator._execute
    seen: dict = {}
    resolved: list[int] = []

    def capture(self, j, arrivals):
        seen["arrivals"] = perturb(self, j, arrivals)
        return seen["arrivals"]

    def lockstep(self, j, start, timings, **kwargs):
        timing = execute(self, j, start, timings, **kwargs)
        assert timing == ThreadTiming.resolve(self.template, start,
                                              seen["arrivals"]), j
        resolved.append(j)
        return timing

    cfg = SimConfig(iterations=2000, seed=1)
    for spawn, every_thread in ((1.5, True), (3, False)):
        arch = ArchConfig(spawn_overhead=spawn)
        resolved.clear()
        with monkeypatch.context() as m:
            # patched on the base class, so the detector still engages
            m.setattr(SpMTSimulator, "_perturb_arrivals", capture)
            m.setattr(SpMTSimulator, "_execute", lockstep)
            sim = SpMTSimulator(fig1_pipelined_tms, arch, cfg)
            stats = sim.run()
        assert stats.misspeculations > 0
        assert (set(resolved) == set(range(cfg.iterations))) == every_thread
        # the memo answered most calls
        assert len(sim._resolved) < len(resolved) / 2
        assert stats == simulate(fig1_pipelined_tms, arch,
                                 replace(cfg, exact=True))


# -- detector gating ---------------------------------------------------------


def test_detector_rejects_fractional_spawn(fig1_pipelined_sms):
    sim = SpMTSimulator(fig1_pipelined_sms, ArchConfig(spawn_overhead=1.5))
    det = SteadyStateDetector(sim.template, sim.arch, 10_000)
    assert not det.viable


def test_fractional_spawn_still_matches_exact(fig1_pipelined_tms):
    arch = ArchConfig(spawn_overhead=1.5)
    fast, exact = _both(fig1_pipelined_tms, arch, iterations=800, seed=2)
    assert fast == exact


@pytest.mark.parametrize("alg", ["sms", "tms"])
@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_relocks_after_each_violation(fig1_ddg, fig1_machine, arch, alg,
                                      seed):
    """Each isolated violation costs the event loop a couple of threads:
    the relative state is back on a proven cycle (or a replayable
    transient) right after it, instead of a fresh period proof."""
    sched = schedule_sms(fig1_ddg, fig1_machine) if alg == "sms" \
        else schedule_tms(fig1_ddg, fig1_machine, arch)
    pipelined = run_postpass(sched, arch)
    skipped = metrics.counter("sim.fastforward_threads",
                              "threads skipped analytically")
    replayed = metrics.counter("sim.replayed_threads",
                               "threads replayed from a memoised record")
    before = skipped.value + replayed.value
    fast = simulate(pipelined, arch, SimConfig(iterations=5000, seed=seed))
    resolved = 5000 - (skipped.value + replayed.value - before)
    exact = simulate(pipelined, arch,
                     SimConfig(iterations=5000, seed=seed, exact=True))
    assert fast == exact
    assert fast.misspeculations > 100
    assert resolved <= 2 * (fast.misspeculations + 1)


def test_certain_violation_beside_coin_flips(latency, resources, arch):
    """A p = 1 dependence restarts every other thread; a coin flip drawn
    on a restarting thread can change its intermediate attempts even
    where the committed timing is safe, so a skip must stop on it."""
    loop = SyntheticLoopGenerator(
        LoopShape(n_instr=12, n_spec_deps=2, spec_probability=0.5),
        1).generate("mixed")
    pipelined = run_postpass(
        schedule_sms(build_ddg(loop, latency), resources), arch)
    certain, coin = pipelined.speculated
    pipelined = replace(pipelined, speculated=(
        replace(certain, probability=1.0), replace(coin, probability=0.3)))
    fast, exact = _both(pipelined, arch, iterations=1000, seed=1)
    assert fast.misspeculations == 499
    assert fast == exact


def test_max_events_counts_skipped_threads(axpy_pipelined, arch,
                                          monkeypatch):
    """Skipped and replayed threads count their events, so the fast path
    trips the same ``MAX_EVENTS`` bound as the reference loop."""
    monkeypatch.setattr(sim_mod, "MAX_EVENTS", 1_000)
    for exact in (True, False):
        with pytest.raises(SimulationError, match="exceeded 1000 events"):
            simulate(axpy_pipelined, arch,
                     SimConfig(iterations=20_000, exact=exact))


# -- realisation chunk draws -------------------------------------------------


def _sequential_draws(template, seed, count):
    """Each thread's draws as one ``rng.random(n_deps)`` call per thread
    in thread order: the reference loop's stream, as bitmasks."""
    rng = np.random.default_rng(seed)
    probs = [p for (_x, _y, _k, p) in template.speculated]
    return [_bits(d < p for d, p in zip(rng.random(len(probs)), probs))
            for _ in range(count)]


def _bits(draws):
    return sum(1 << i for i, hit in enumerate(draws) if hit)


def test_block_draws_match_sequential(fig1_pipelined_tms, arch):
    """Bitmask draws, read one by one or a chunk at a time, equal
    sequential per-thread draws across a chunk boundary (2,048 threads),
    and when ``n`` is shorter than one chunk (chunks of ``n``
    threads)."""
    sim = SpMTSimulator(fig1_pipelined_tms, arch)
    expected = _sequential_draws(sim.template, 42, 2100)
    assert any(expected)
    for n, count in ((5000, 2100), (50, 120)):
        masks = RealisationTable(sim.template, 42, n)
        chunks = RealisationTable(sim.template, 42, n)
        for j in range(count):
            assert masks.mask(j) == expected[j]
            first, held = chunks.chunk(j)
            assert held[j - first] == expected[j]


def test_block_overlap_does_not_redraw(fig1_pipelined_tms, arch):
    """Reading the held chunks again, through ``chunk`` or ``mask``,
    consumes nothing: later threads continue the same stream."""
    sim = SpMTSimulator(fig1_pipelined_tms, arch)
    expected = _sequential_draws(sim.template, 9, 52)
    tab = RealisationTable(sim.template, 9, 32)
    assert tab.chunk(16) == (0, expected[:32])
    for j in (20, 16, 31, 0):
        assert tab.mask(j) == expected[j]
    for j in range(48, 52):
        assert tab.mask(j) == expected[j]


def test_block_keeps_rows_past_a_shorter_request(fig1_pipelined_tms, arch):
    """Reading back into the older held chunk must not drop the newer
    one: its draws are already consumed from the stream."""
    sim = SpMTSimulator(fig1_pipelined_tms, arch)
    expected = _sequential_draws(sim.template, 11, 89)
    tab = RealisationTable(sim.template, 11, 32)
    tab.mask(40)
    assert tab.mask(16) == expected[16]
    later = [tab.mask(j) for j in range(24, 64)]
    assert later == expected[24:64]
    assert tab.mask(88) == expected[88]


@pytest.mark.parametrize("exact", [False, True])
def test_realisation_table_holds_at_most_two_chunks(
        fig1_pipelined_sms, arch, monkeypatch, exact):
    """The table holds at most two chunks of ``min(n, 2048)`` threads'
    draws, at 2,000 iterations or 200,000.  The motivating kernel's SMS
    schedule misspeculates, so threads restart and re-read their
    draws."""
    peaks = []

    class Recording(RealisationTable):
        def _hold(self, thread):
            row = super()._hold(thread)
            peaks[-1] = max(peaks[-1], len(self._masks))
            return row

    monkeypatch.setattr("repro.spmt.sim.RealisationTable", Recording)
    for n in (2_000, 200_000):
        peaks.append(0)
        stats = simulate(fig1_pipelined_sms, arch,
                         SimConfig(iterations=n, exact=exact))
        assert stats.misspeculations > 0
    assert peaks == [2_000, 2 * 2048]


# -- spawn-chain squash estimate (satellite bugfix) --------------------------


class _ForcedViolation(SpMTSimulator):
    """Forces one violation on thread 5, detected ``gap`` cycles in."""

    GAP = 1.0

    def _inject_violation(self, j, core, attempt, timing):
        if j == 5 and attempt == 0:
            return timing.start + self.GAP
        return None


def _forced(axpy_ddg, resources, arch):
    pipelined = run_postpass(schedule_sms(axpy_ddg, resources), arch)
    return _ForcedViolation(pipelined, arch,
                            SimConfig(iterations=50, seed=1)).run()


def test_started_after_zero_spawn_squashes_window(axpy_ddg, resources):
    """With free spawns the whole speculative window was already running
    at detection time; the old estimate divided by max(C_spn, 1) and
    squashed only int(gap) threads."""
    arch = ArchConfig(ncore=4, spawn_overhead=0)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1 + (arch.ncore - 1)


def test_started_after_fractional_spawn_uses_true_chain(axpy_ddg, resources):
    """gap // C_spn with C_spn = 0.5 admits two spawned threads for a
    1-cycle gap (the old floor-by-1 admitted one)."""
    arch = ArchConfig(ncore=4, spawn_overhead=0.5)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1 + 2


def test_started_after_integer_spawn_unchanged(axpy_ddg, resources):
    """The estimate for the paper machine (C_spn = 3) is untouched: a
    1-cycle gap outruns no spawn."""
    arch = ArchConfig(ncore=4, spawn_overhead=3)
    stats = _forced(axpy_ddg, resources, arch)
    assert stats.misspeculations == 1
    assert stats.squashed_threads == 1


# -- lazy cache-perturbation state (satellite bugfix) ------------------------


def test_reused_simulator_replays_cache_stream(fig1_pipelined_sms):
    """run() twice on one simulator must give identical stats: the miss
    rng is re-derived per run instead of continuing the previous run's
    stream (the old eager state made reuse order-dependent)."""
    sim = SpMTSimulator(fig1_pipelined_sms, ArchConfig(l1_miss_rate=0.4),
                        SimConfig(iterations=200, seed=6))
    assert sim.run() == sim.run()


def test_cache_rng_seed_mix_pinned(fig1_pipelined_sms):
    """The miss stream is seeded with ``sim.seed ^ 0xCAC4E`` over the
    template's load instructions — pinned so the derivation cannot drift
    silently (it was previously unexercised on the default path)."""
    arch = ArchConfig(l1_miss_rate=1.0, l2_miss_rate=0.0)
    seed = 1234
    sim = SpMTSimulator(fig1_pipelined_sms, arch, SimConfig(seed=seed))
    extra = sim._draw_cache_extra()
    rng = np.random.default_rng(seed ^ 0xCAC4E)
    loads = [i for i, name in enumerate(sim.template.names)
             if fig1_pipelined_sms.schedule.ddg.node(name).opcode.is_load]
    expected = [0] * len(sim.template.names)
    for i in loads:
        assert rng.random() < 1.0  # l1 always misses at rate 1.0
        expected[i] = arch.l2_hit_latency - arch.l1_hit_latency
    assert extra == expected
    assert loads, "fig1 kernel has loads"


def test_cache_state_lazy_until_first_draw(fig1_pipelined_sms, arch):
    deterministic = SpMTSimulator(fig1_pipelined_sms, arch)
    assert deterministic._cache is None
    assert deterministic._draw_cache_extra() is None
    assert deterministic._cache is None  # zero miss rate never builds
    probabilistic = SpMTSimulator(fig1_pipelined_sms,
                                  ArchConfig(l1_miss_rate=0.9))
    assert probabilistic._cache is None
    assert probabilistic._draw_cache_extra() is not None
    assert probabilistic._cache is not None
