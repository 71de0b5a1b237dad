"""The TMS search walks its (II, C_delay) candidates lazily, in exactly
the order of the fully sorted list of every pair up to ``max_ii``.

F never falls as C_delay grows at a fixed II, so merging the per-II rows
yields that order; the walk stops where the attempt budget does instead
of evaluating and sorting every pair first.  Checked on the 59-kernel
population (the SPECfp loops and the Table-3 DOACROSS loops) and on
random architectures, II ranges and latencies.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig
from repro.costmodel.exectime import objective_f
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.sched import ThreadSensitiveScheduler
from repro.workloads import (
    DOACROSS_LOOPS,
    motivating_ddg,
    motivating_machine,
)
from repro.workloads.specfp import SPECFP_BENCHMARKS, generate_benchmark_loops

ARCH = ArchConfig.paper_default()


def _sorted_candidates(tms):
    """Every (F, C_delay, II) triple up to ``max_ii``, sorted."""
    return sorted((objective_f(ii, cd, tms.arch), cd, ii)
                  for ii in range(tms.mii, tms.max_ii + 1)
                  for cd in range(tms._c_delay_min(),
                                  tms._c_delay_cap(ii) + 1))


def test_lazy_walk_equals_sorted_list_on_the_population():
    lat = LatencyModel.for_arch(ARCH)
    res = ResourceModel.default(ARCH.issue_width)
    loops = [loop for spec in SPECFP_BENCHMARKS
             for loop in generate_benchmark_loops(spec, max_loops=4)]
    loops += [sl.loop for sl in DOACROSS_LOOPS]
    assert len(loops) == 59
    for loop in loops:
        tms = ThreadSensitiveScheduler(build_ddg(loop, lat), res, ARCH)
        assert list(tms._candidates()) == _sorted_candidates(tms), loop.name


_BASE = ThreadSensitiveScheduler(motivating_ddg(), motivating_machine(),
                                 ARCH)

overheads = st.one_of(st.integers(0, 24),
                      st.floats(0.0, 24.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(ncore=st.integers(1, 16), spawn=overheads,
       commit=st.integers(0, 24), ccom=st.integers(0, 12),
       mii=st.integers(1, 40), ldp=st.integers(1, 60),
       max_lat=st.integers(1, 24))
def test_lazy_walk_equals_sorted_list_on_random_architectures(
        ncore, spawn, commit, ccom, mii, ldp, max_lat):
    tms = copy.copy(_BASE)
    tms.arch = ArchConfig(ncore=ncore, spawn_overhead=spawn,
                          commit_overhead=commit, reg_comm_latency=ccom)
    tms.mii, tms.ldp, tms._max_lat = mii, ldp, max_lat
    assert list(tms._candidates()) == _sorted_candidates(tms)
