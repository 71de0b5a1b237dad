"""Property-based tests on the SpMT simulator: conservation laws, plus
the differential oracle for the fast path — every random
(loop, arch, fault-plan) draw must produce byte-identical ``SimStats``
through the default memoised/skip/replay path and the reference
event loop (``SimConfig.exact``)."""

from dataclasses import replace
from itertools import cycle

from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SimConfig
from repro.faults import FaultPlan, FaultSpec, simulate_with_faults
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate
from repro.workloads import LoopShape, SyntheticLoopGenerator

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default()
LAT = LatencyModel.for_arch(ARCH)

shapes = st.builds(
    LoopShape,
    n_instr=st.integers(8, 20),
    n_counters=st.integers(1, 2),
    n_reg_recurrences=st.integers(0, 1),
    n_mem_recurrences=st.integers(0, 1),
    n_spec_deps=st.integers(0, 2),
    spec_probability=st.floats(0.0, 0.1),
)


#: the oracle's loops also draw frequent and certain misspeculation
#: (p = 1 manifests on every thread), so violation cycles and re-locks
#: after isolated violations are both exercised
spec_probabilities = st.sampled_from([0.001, 0.01, 0.05, 0.2, 0.5, 1.0])
oracle_shapes = st.builds(
    LoopShape,
    n_instr=st.integers(8, 20),
    n_counters=st.integers(1, 2),
    n_reg_recurrences=st.integers(0, 1),
    n_mem_recurrences=st.integers(0, 1),
    n_spec_deps=st.integers(0, 2),
    spec_probability=spec_probabilities,
)


def _pipelined(shape, seed, tms=False):
    loop = SyntheticLoopGenerator(shape, seed).generate("prop")
    ddg = build_ddg(loop, LAT)
    sched = schedule_tms(ddg, RES, ARCH) if tms else schedule_sms(ddg, RES)
    return run_postpass(sched, ARCH)


@given(shape=shapes, seed=st.integers(0, 5000),
       n=st.integers(1, 200))
@settings(max_examples=20, deadline=None)
def test_conservation(shape, seed, n):
    pipelined = _pipelined(shape, seed)
    stats = simulate(pipelined, ARCH, SimConfig(iterations=n, seed=seed))
    assert stats.iterations == n
    assert stats.send_recv_pairs == pipelined.comm.pairs_per_iteration * n
    assert stats.total_cycles >= n * pipelined.ii / ARCH.ncore
    assert stats.sync_stall_cycles >= 0
    assert stats.squashed_threads >= stats.misspeculations
    assert stats.invalidation_cycles == \
        stats.misspeculations * ARCH.invalidation_overhead


@given(shape=shapes, seed=st.integers(0, 5000))
@settings(max_examples=15, deadline=None)
def test_monotone_in_iterations(shape, seed):
    pipelined = _pipelined(shape, seed)
    t50 = simulate(pipelined, ARCH, SimConfig(iterations=50, seed=1))
    t150 = simulate(pipelined, ARCH, SimConfig(iterations=150, seed=1))
    assert t150.total_cycles > t50.total_cycles


archs = st.sampled_from([
    ArchConfig.paper_default(),
    ArchConfig(ncore=2),
    ArchConfig(ncore=3),
    ArchConfig(ncore=8),
    ArchConfig(spawn_overhead=0),
    ArchConfig(spawn_overhead=1.5),
    ArchConfig(reg_comm_latency=7),
    ArchConfig(commit_overhead=0, invalidation_overhead=1),
    ArchConfig.single_core(),
])


@given(shape=oracle_shapes, tms=st.booleans(), seed=st.integers(0, 5000),
       arch=archs, n=st.integers(1, 6000),
       mixed=st.lists(spec_probabilities, max_size=3))
@settings(max_examples=40, deadline=None)
def test_fast_path_matches_reference_loop(shape, tms, seed, arch, n, mixed):
    """The differential oracle: random SMS or TMS loop x arch grid,
    default path vs the reference event loop, full SimStats equality
    (dataclass ``==`` compares every field, so cycle counts must match to
    the last bit).  ``mixed`` reassigns per-dependence probabilities, so
    a certain violation can restart a thread that also draws coin
    flips."""
    pipelined = _pipelined(shape, seed, tms)
    if mixed:
        pipelined = replace(pipelined, speculated=tuple(
            replace(e, probability=p)
            for e, p in zip(pipelined.speculated, cycle(mixed))))
    fast = simulate(pipelined, arch, SimConfig(iterations=n, seed=seed))
    exact = simulate(pipelined, arch,
                     SimConfig(iterations=n, seed=seed, exact=True))
    assert fast == exact


fault_specs = st.sampled_from([
    FaultSpec("violation", probability=0.3, every=2),
    FaultSpec("comm_jitter", probability=0.5, magnitude=3.0),
    FaultSpec("spawn_failure", probability=0.2, magnitude=5.0),
])


@given(shape=shapes, seed=st.integers(0, 5000),
       specs=st.lists(fault_specs, min_size=1, max_size=2, unique=True))
@settings(max_examples=10, deadline=None)
def test_faulted_runs_match_reference_loop(shape, seed, specs):
    """Fault hooks override the event-loop extension points, which must
    disengage the fast path — so faulted runs agree with the reference
    loop too (and the hook-override gate is what this exercises)."""
    pipelined = _pipelined(shape, seed)
    plan = FaultPlan(seed=seed % 97, specs=tuple(specs))
    fast, _ = simulate_with_faults(
        pipelined, ARCH, plan, SimConfig(iterations=120, seed=seed))
    exact, _ = simulate_with_faults(
        pipelined, ARCH, plan,
        SimConfig(iterations=120, seed=seed, exact=True))
    assert fast == exact


@given(shape=shapes, seed=st.integers(0, 5000))
@settings(max_examples=10, deadline=None)
def test_invalidation_overhead_monotone(shape, seed):
    pipelined = _pipelined(shape, seed)
    cheap = ArchConfig(invalidation_overhead=0)
    dear = ArchConfig(invalidation_overhead=40)
    a = simulate(pipelined, cheap, SimConfig(iterations=150, seed=2))
    b = simulate(pipelined, dear, SimConfig(iterations=150, seed=2))
    assert b.total_cycles >= a.total_cycles
