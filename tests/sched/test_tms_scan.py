"""TMS's per-node window scan picks exactly the per-probe oracle's slot.

:class:`~repro.sched.engine.TMSPolicy` turns C1 into a row interval per
stage and evaluates C2 and the score only on the rows that survive it;
:class:`~tests.sched.oracle.PerProbeTMSPolicy` probes every window row
with C1, C2 and the score in turn.  Both run in lockstep over random
DDGs, node orders and scan directions — so every placement is made
against a random partial schedule — under speculation on and off,
``C_reg_com`` 1, 3 and 7, a spread of ``C_delay`` thresholds and
``P_max`` 0, 0.05 and 1.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg, compute_mii
from repro.machine import LatencyModel, ResourceModel
from repro.sched.engine import (
    EngineContext,
    PartialSchedule,
    TMSContext,
    TMSPolicy,
    WindowService,
)
from repro.sched.ordering import compute_node_order_with_directions
from repro.workloads import LoopShape, SyntheticLoopGenerator

from .oracle import PerProbeTMSPolicy

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default()
LAT = LatencyModel.for_arch(ARCH)

shapes = st.builds(
    LoopShape,
    n_instr=st.integers(6, 24),
    n_counters=st.integers(1, 2),
    n_reg_recurrences=st.integers(0, 2),
    reg_recurrence_len=st.integers(1, 3),
    serial_recurrence=st.booleans(),
    n_mem_recurrences=st.integers(0, 2),
    mem_rec_ops=st.integers(1, 2),
    mem_rec_distance=st.integers(1, 3),
    n_spec_deps=st.integers(0, 3),
    spec_probability=st.floats(0.0, 0.3),
    mul_fraction=st.floats(0.0, 0.5),
    store_fraction=st.floats(0.0, 1.0),
)


def _lockstep(ddg, resources, arch, config, ii, c_delay, p_max, order,
              bottom_up, seed_high):
    """Place ``order`` with both policies side by side; returns how many
    nodes were placed."""
    ctx = EngineContext(ddg, resources)
    tms_ctx = TMSContext(ddg, ctx)
    table = WindowService(ctx).table(ii)
    fast = TMSPolicy(tms_ctx, arch, config, ii, c_delay, p_max)
    slow = PerProbeTMSPolicy(tms_ctx, arch, config, ii, c_delay, p_max)
    ps = PartialSchedule(ctx, ii)
    fast.begin_attempt(ps)
    slow.begin_attempt(ps)
    placed = 0
    for v in order:
        start, end, scan_down = table.window(v, ps.slots, bottom_up[v],
                                             seed_high)
        got, rows = fast.select(v, start, end, scan_down, ps)
        want, probes = slow.select(v, start, end, scan_down, ps)
        assert got == want, (v, dict(ps.slots))
        # the scan never evaluates a row the per-probe walk skips
        assert rows <= probes
        if got is None:
            break
        ps.place(v, got)
        fast.on_place(v, got, ps.slots)
        slow.on_place(v, got, ps.slots)
        placed += 1
    # every sync delay C1 rejected is at least the scan's floor
    assert fast.reject_floor <= slow.c1_floor
    return placed


@given(shape=shapes, seed=st.integers(0, 10_000),
       ccom=st.sampled_from((1, 3, 7)), speculation=st.booleans(),
       p_max=st.sampled_from((0.0, 0.05, 1.0)),
       draw_seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_per_node_scan_matches_per_probe_oracle(shape, seed, ccom,
                                                speculation, p_max,
                                                draw_seed):
    ddg = build_ddg(SyntheticLoopGenerator(shape, seed).generate("prop"),
                    LAT)
    arch = replace(ARCH, reg_comm_latency=ccom)
    config = SchedulerConfig(p_max=p_max, speculation=speculation)
    rng = random.Random(draw_seed)
    mii = compute_mii(ddg, RES)
    max_lat = max(n.latency for n in ddg.nodes)
    swing, directions = compute_node_order_with_directions(ddg)
    for _ in range(4):
        ii = rng.randint(mii, mii + 6)
        # the TMS search's C_delay range at this II
        c_delay = rng.randint(1 + ccom, ii - 1 + max_lat + ccom)
        if rng.random() < 0.5:
            order = list(swing)
            bottom_up = {v: directions.get(v) == "bottom-up" for v in order}
        else:
            order = list(ddg.node_names)
            rng.shuffle(order)
            bottom_up = {v: rng.random() < 0.5 for v in order}
        _lockstep(ddg, RES, arch, config, ii, c_delay, p_max, order,
                  bottom_up, rng.random() < 0.5)


def test_lockstep_places_the_motivating_kernel(fig1_ddg, fig1_machine, arch):
    """The motivating kernel at its TMS (II, C_delay) = (8, 5): every
    node placed, same slots under both policies."""
    order, directions = compute_node_order_with_directions(fig1_ddg)
    bottom_up = {v: directions.get(v) == "bottom-up" for v in order}
    placed = _lockstep(fig1_ddg, fig1_machine, arch, SchedulerConfig(), 8, 5,
                       0.05, order, bottom_up, False)
    assert placed == len(fig1_ddg.node_names)
