"""TMS's per-node window scan picks exactly the per-probe oracle's slot,
and its replay floor is exact.

:class:`~repro.sched.engine.TMSPolicy` turns C1 into a row interval per
stage and evaluates C2 and the score only on the rows that survive it;
:class:`~tests.sched.oracle.PerProbeTMSPolicy` probes every window row
with C1, C2 and the score in turn.  Both run in lockstep over random
DDGs, node orders and scan directions — so every placement is made
against a random partial schedule — under speculation on and off,
``C_reg_com`` 1, 3 and 7, a spread of ``C_delay`` thresholds and
``P_max`` 0, 0.05 and 1.

The same calls are then replayed through the oracle at higher
thresholds: below :attr:`TMSPolicy.replay_floor` every call must answer
as it did at ``C_delay`` (soundness), and at the floor's ceiling some
call must answer differently (tightness).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg, compute_mii
from repro.graph.ddg import DDG, DDGNode
from repro.graph.dependence import Dependence, DepKind, DepType
from repro.ir.opcode import Opcode
from repro.machine import LatencyModel, ResourceModel
from repro.sched.engine import (
    EngineContext,
    PartialSchedule,
    TMSContext,
    TMSPolicy,
    WindowTable,
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
    """Place ``order`` with both policies side by side, then check the
    replay floor against the oracle; returns how many nodes were
    placed."""
    ctx = EngineContext(ddg, resources)
    tms_ctx = TMSContext(ddg, ctx)
    windows = WindowTable(ctx)
    fast = TMSPolicy(tms_ctx, arch, config, ii, c_delay, p_max)
    slow = PerProbeTMSPolicy(tms_ctx, arch, config, ii, c_delay, p_max)
    ps = PartialSchedule(ctx, ii)
    fast.begin_attempt(ps)
    slow.begin_attempt(ps)
    calls = []
    for v in order:
        start, end, scan_down = windows.window(v, ps.slots, ii, bottom_up[v],
                                               seed_high)
        got, rows = fast.select(v, start, end, scan_down, ps)
        want, probes = slow.select(v, start, end, scan_down, ps)
        assert got == want, (v, dict(ps.slots))
        # the scan never evaluates a row the per-probe walk skips
        assert rows <= probes
        calls.append((v, start, end, scan_down, got))
        if got is None:
            break
        ps.place(v, got)
        fast.on_place(v, got, ps.slots)
        slow.on_place(v, got, ps.slots)

    def answers(threshold):
        """The oracle's answer to each call at ``threshold``, against the
        partial schedule the calls were made on."""
        oracle = PerProbeTMSPolicy(tms_ctx, arch, config, ii, threshold,
                                   p_max)
        replay = PartialSchedule(ctx, ii)
        oracle.begin_attempt(replay)
        out = []
        for v, start, end, scan_down, got in calls:
            out.append(oracle.select(v, start, end, scan_down, replay)[0])
            if got is not None:
                replay.place(v, got)
                oracle.on_place(v, got, replay.slots)
        return out

    chosen = [got for *_call, got in calls]
    floor = fast.replay_floor
    assert floor > c_delay
    if floor < math.inf:
        # tight: at the floor's ceiling some call answers differently
        assert answers(math.ceil(floor)) != chosen, floor
        top = math.ceil(floor) - 1
    else:  # up to the search's largest threshold at this II
        top = ii - 1 + max(n.latency for n in ddg.nodes) + \
            arch.reg_comm_latency
    # sound: below the floor every call answers as at c_delay (checked at
    # the first few thresholds and the last)
    for threshold in {*range(c_delay + 1, min(c_delay + 3, top) + 1), top}:
        if threshold > c_delay:
            assert answers(threshold) == chosen, (threshold, floor)
    return sum(got is not None for got in chosen)


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



def _flow(src, dst, distance, delay):
    return Dependence(src, dst, DepKind.REGISTER, DepType.FLOW, distance,
                      delay)


def _node_v_at(nodes, edges, ii, ccom, c_delay, placed):
    """``(slot, replay_floor, answer)``: node ``v``'s TMS slot at
    ``c_delay`` against the ``placed`` slots, the call's replay floor,
    and ``answer(threshold, policy)``, the slot ``policy`` picks there
    (checked against the window the engine would use)."""
    ddg = DDG("hand", nodes, edges)
    arch = replace(ARCH, reg_comm_latency=ccom)
    ctx = EngineContext(ddg, RES)
    tms_ctx = TMSContext(ddg, ctx)
    ps = PartialSchedule(ctx, ii)
    for u, slot in placed:
        ps.place(u, slot)
    window = WindowTable(ctx).window("v", ps.slots, ii, False, False)

    def answer(threshold, policy=PerProbeTMSPolicy):
        return policy(tms_ctx, arch, SchedulerConfig(), ii, threshold,
                      0.05).select("v", *window, ps)[0]

    fast = TMSPolicy(tms_ctx, arch, SchedulerConfig(), ii, c_delay, 0.05)
    slot = fast.select("v", *window, ps)[0]
    assert slot == answer(c_delay)
    return slot, fast.replay_floor, answer


def test_a_rejected_row_can_beat_the_chosen_one():
    """A placed node's call can answer differently at a higher threshold.

    ``u -> v`` spans three stages (kernel distance 3), so v's sync delay
    falls by 1/3 per row and, at C_delay 2, C1 admits only the top row of
    v's stage.  That row's height tiebreak (v feeds the unplaced w) lifts
    its score to 2.45; the row below it has sync 7/3 and no tiebreak.
    So the call's replay floor is 7/3, and at C_delay 3 that row wins.
    """
    nodes = [DDGNode("u", Opcode.FMUL, 4, 0), DDGNode("x", Opcode.IADD, 1, 1),
             DDGNode("v", Opcode.IADD, 1, 2), DDGNode("w", Opcode.IADD, 1, 3)]
    edges = [_flow("u", "v", 1, 4), _flow("x", "v", 0, 1),
             _flow("v", "w", 0, 1)]
    # u in stage 0, row 2; x starts v's window at stage 2, row 1
    slot, floor, answer = _node_v_at(nodes, edges, 4, 1, 2,
                                     [("u", 2), ("x", 8)])
    assert slot == 11
    assert floor == 4 / 3 + 1  # span 4 over 3 stages, plus C_reg_com
    assert answer(3) == answer(3, TMSPolicy) == 10


def test_a_rejected_row_can_tie_and_come_first():
    """A rejected row with the chosen row's score wins once admitted if
    the scan reaches it first.

    At C_delay 4 (C_reg_com 3, II 11) C1 admits only row 10 of v's
    stage: sync 4, plus 0.45 for the height tiebreak.  Row 8 has sync
    4.4 (span 7 over 5 stages) plus 0.05 for the depth tiebreak (v's
    unplaced feeder y needs 9 rows below it), the same 4.45, and the
    upward scan reaches it first; row 9 does not fit.
    """
    nodes = [DDGNode("u", Opcode.FMUL, 8, 0), DDGNode("x", Opcode.IADD, 1, 1),
             DDGNode("y", Opcode.FMUL, 9, 2), DDGNode("v", Opcode.IADD, 1, 3),
             DDGNode("w", Opcode.IADD, 1, 4), DDGNode("f0", Opcode.IADD, 1, 5),
             DDGNode("f1", Opcode.IADD, 1, 6)]
    edges = [_flow("u", "v", 1, 8), _flow("x", "v", 0, 1),
             _flow("y", "v", 0, 9), _flow("v", "w", 0, 1)]
    # u in stage 0, row 7; x starts v's window at stage 4, row 1; the
    # two integer units are busy in row 9
    slot, floor, answer = _node_v_at(
        nodes, edges, 11, 3, 4, [("u", 7), ("x", 44), ("f0", 9), ("f1", 9)])
    assert slot == 54
    assert floor == 7 / 5 + 3
    assert answer(5) == answer(5, TMSPolicy) == 52
