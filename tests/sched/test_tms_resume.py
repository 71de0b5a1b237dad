"""The TMS search, which resumes each candidate from the placement prefix
it provably shares with the last candidate placed at its II, gives
exactly what placing every candidate from scratch gives.

:func:`~tests.sched.oracle.reference_search` walks the same ``(II,
C_delay)`` candidates and places every one it does not prune from the
first node.  Both run traced, each on a scheduler of its own, and must
agree on the schedule, its meta and the ``sched`` event stream (every
``tms.candidate``, ``place`` and ``place_fail`` event, in order): on
random DDGs with random attempt budgets, and on the Table-3 DOACROSS
kernels and the motivating kernel, under speculation on (``P_max`` 0,
0.05 and 1) and off, at ``C_reg_com`` 1, 3 and 7.
"""

from __future__ import annotations

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.sched.tms as tms_mod
from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.obs.telemetry import Telemetry
from repro.sched import ThreadSensitiveScheduler
from repro.sched.engine import TMSPolicy, Trail
from repro.workloads import (
    DOACROSS_LOOPS,
    SyntheticLoopGenerator,
    motivating_ddg,
    motivating_machine,
)

from .oracle import reference_search
from .test_tms_scan import shapes

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default(ARCH.issue_width)
LAT = LatencyModel.for_arch(ARCH)


def _traced(search):
    """``(ii, slots, meta, events)`` of one traced search."""
    with Telemetry(events=True) as traced:
        sched = search()
    return (sched.ii, sched.slots, sched.meta,
            [(e.name, e.args) for e in traced.tracer.events])


def _check(ddg, resources, arch, config):
    """The search and the reference agree; returns the search's
    ``tms.candidate`` outcomes."""
    def scheduler():
        return ThreadSensitiveScheduler(ddg, resources, arch, config)

    got = _traced(scheduler().schedule)
    want = _traced(lambda: reference_search(scheduler(), config.p_max))
    assert got[:3] == want[:3], (ddg.name, arch.reg_comm_latency, config)
    assert got[3] == want[3], (ddg.name, arch.reg_comm_latency, config)
    return [args["outcome"] for name, args in got[3]
            if name == "tms.candidate"]


@given(shape=shapes, seed=st.integers(0, 10_000),
       ccom=st.sampled_from((1, 3, 7)), speculation=st.booleans(),
       p_max=st.sampled_from((0.0, 0.05, 1.0)),
       budget=st.sampled_from((3, 40, 4000)))
@settings(max_examples=80, deadline=None)
def test_resumed_search_matches_the_reference_on_random_ddgs(
        shape, seed, ccom, speculation, p_max, budget):
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"),
                    LAT)
    config = SchedulerConfig(p_max=p_max, speculation=speculation)
    with mock.patch.object(tms_mod, "MAX_CANDIDATES", budget):
        _check(ddg, RES, replace(ARCH, reg_comm_latency=ccom), config)


@pytest.mark.parametrize("speculation,p_max",
                         [(True, 0.0), (True, 0.05), (True, 1.0),
                          (False, 0.05)])
@pytest.mark.parametrize("ccom", [1, 3, 7])
def test_resumed_search_matches_the_reference_on_table3(ccom, speculation,
                                                        p_max):
    arch = replace(ARCH, reg_comm_latency=ccom)
    config = SchedulerConfig(p_max=p_max, speculation=speculation)
    kernels = [(build_ddg(sl.loop, LAT), RES) for sl in DOACROSS_LOOPS]
    kernels.append((motivating_ddg(), motivating_machine()))
    outcomes = []
    for ddg, resources in kernels:
        outcomes += _check(ddg, resources, arch, config)
    # the comparison covers candidates of all three kinds
    assert {"accept", "reject", "pruned"} <= set(outcomes)


@given(shape=shapes, seed=st.integers(0, 10_000),
       ccom=st.sampled_from((1, 3, 7)), speculation=st.booleans(),
       p_max=st.sampled_from((0.0, 0.05, 1.0)),
       draw_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_every_trail_equals_a_from_scratch_one(shape, seed, ccom,
                                               speculation, p_max,
                                               draw_seed):
    """Walking an II's C_delay row through one trail store leaves, after
    each failed candidate, exactly the trails placing it from scratch
    leaves: the same cycles and the same carried-over ``μ`` per call."""
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"),
                    LAT)
    arch = replace(ARCH, reg_comm_latency=ccom)
    tms = ThreadSensitiveScheduler(
        ddg, RES, arch, SchedulerConfig(p_max=p_max,
                                        speculation=speculation))
    rng = random.Random(draw_seed)
    for ii in {tms.mii, rng.randint(tms.mii, tms.mii + 6)}:
        store = {}
        for c_delay in range(tms._c_delay_min(), tms._c_delay_cap(ii) + 1):
            fresh = {}
            got = tms._try_tms(ii, c_delay, p_max, store)
            assert got == tms._try_tms(ii, c_delay, p_max, fresh)
            if got[0] is not None:
                break  # the search stops here
            assert {key: (t.c_delay, t.cycles, t.floors)
                    for key, t in store.items()} == \
                {key: (t.c_delay, t.cycles, t.floors)
                 for key, t in fresh.items()}


@given(shape=shapes, seed=st.integers(0, 10_000),
       ccom=st.sampled_from((1, 3, 7)), speculation=st.booleans(),
       p_max=st.sampled_from((0.0, 0.05, 1.0)),
       draw_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_a_replayed_prefix_commits_what_select_committed(shape, seed, ccom,
                                                         speculation, p_max,
                                                         draw_seed):
    """A pass resumed from a prefix of its own trail (same threshold)
    re-places the prefix as ``select`` placed it and ends with the same
    slots, trail and committed Definition-4 dependences."""
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"),
                    LAT)
    arch = replace(ARCH, reg_comm_latency=ccom)
    config = SchedulerConfig(p_max=p_max, speculation=speculation)
    tms = ThreadSensitiveScheduler(ddg, RES, arch, config)
    rng = random.Random(draw_seed)
    ii = rng.randint(tms.mii, tms.mii + 6)
    c_delay = rng.randint(tms._c_delay_min(), tms._c_delay_cap(ii))
    seed_high = rng.random() < 0.5

    def run(trail, shared):
        policy = TMSPolicy(tms._tms_ctx, arch, config, ii, c_delay, p_max)
        slots = tms.try_policy(ii, policy, seed_high,
                               policy.resume(trail, shared))
        return (slots, policy.trail.cycles, policy.trail.floors,
                policy._sreg, policy._smem)

    whole = run(None, 0)
    trail = Trail(c_delay, whole[1], whole[2])
    # a failed pass's last call has no cycle to re-place
    top = len(trail.cycles) - (whole[0] is None)
    for shared in {0, top, rng.randint(0, top)}:
        assert run(trail, shared) == whole, shared


def test_a_trail_is_never_read_below_its_threshold():
    """A pass shares a trail's calls up to the first whose floor is at
    most its threshold, and none at a threshold below the trail's."""
    trail = Trail(5, [3, 9, 14, None], [8.5, 7.0, 7.0, 6.0])
    assert [trail.shared(c) for c in (4, 5, 6, 7, 8, 9)] == [0, 4, 3, 1, 1, 0]
