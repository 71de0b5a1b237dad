"""Swing modulo scheduling."""

import pytest

from repro.costmodel import achieved_c_delay, sync_delay
from repro.errors import SchedulingError
from repro.graph import build_ddg
from repro.ir import parse_loop
from repro.machine import LatencyModel, ResourceModel
from repro.sched import (
    SlotPolicy,
    SwingModuloScheduler,
    schedule_sms,
    validate_schedule,
)


class _Policy(SlotPolicy):
    """A slot policy built from loose ``select``/``on_place`` callables,
    for exercising each engine hook on its own."""

    def __init__(self, select=None, on_place=None):
        if select is not None:
            self.select = select
        self.on_place = on_place


def test_axpy_schedules_at_mii(axpy_ddg, resources):
    s = SwingModuloScheduler(axpy_ddg, resources)
    sched = s.schedule()
    assert sched.ii == s.mii
    validate_schedule(sched, resources)


def test_motivating_anchors(fig1_ddg, fig1_machine, arch):
    # Figure 2(a): II = 8, n0 at cycle 0, n6 at cycle 7, sync(n6,n0) = 11
    sched = schedule_sms(fig1_ddg, fig1_machine)
    assert sched.ii == 8
    assert sched.slot("n0") == 0
    assert sched.slot("n6") == 7
    (e,) = [d for d in sched.inter_iteration_register_deps()
            if d.src == "n6" and d.dst == "n0"]
    assert sync_delay(sched, e, arch.reg_comm_latency) == pytest.approx(11.0)
    assert achieved_c_delay(sched, arch) == pytest.approx(11.0)


def test_motivating_kernel_distances(fig1_ddg, fig1_machine):
    # the paper: n8 -> n5 becomes intra-iteration in the kernel; the listed
    # inter-iteration flow dependences all have kernel distance 1
    sched = schedule_sms(fig1_ddg, fig1_machine)
    (n8n5,) = [e for e in fig1_ddg.edges
               if e.src == "n8" and e.dst == "n5" and e.is_register_flow]
    assert sched.d_ker(n8n5) == 0
    mem = {(e.src, e.dst) for e in sched.inter_iteration_memory_deps()}
    assert mem == {("n5", "n0"), ("n5", "n2"), ("n5", "n3")}


def test_all_loops_validate(recurrent_ddg, resources):
    sched = schedule_sms(recurrent_ddg, resources)
    validate_schedule(sched, resources)


def test_unschedulable_raises():
    loop = parse_loop("""
loop tight
livein s 0.0
n0: s = fdiv s, 2.0
""")
    ddg = build_ddg(loop, LatencyModel())
    rm = ResourceModel.default()
    s = SwingModuloScheduler(ddg, rm)
    # this one schedules fine (self-loop, II = 12); check max_ii bound math
    assert s.max_ii >= s.mii
    sched = s.schedule()
    assert sched.ii >= 12


def test_select_hook_can_skip_a_slot(axpy_ddg, resources):
    s = SwingModuloScheduler(axpy_ddg, resources)
    first_fit = SlotPolicy().select
    skipped = []
    def select(v, start, end, scan_down, ps):
        cycle, rows = first_fit(v, start, end, scan_down, ps)
        if v == "n4" and not skipped:
            skipped.append(cycle)
            if scan_down:
                cycle, more = first_fit(v, start, cycle - 1, True, ps)
            else:
                cycle, more = first_fit(v, cycle + 1, end, False, ps)
            rows += more
        return cycle, rows
    slots = s.try_policy(s.mii + 4, _Policy(select=select))
    assert slots is not None
    assert skipped  # the hook really ran and skipped a slot
    assert slots["n4"] != skipped[0]


def test_on_place_sees_updated_partial(axpy_ddg, resources):
    s = SwingModuloScheduler(axpy_ddg, resources)
    seen = {}
    def on_place(v, cycle, partial):
        assert partial[v] == cycle
        seen[v] = cycle
    s.try_policy(s.mii + 2, _Policy(on_place=on_place))
    assert set(seen) == set(axpy_ddg.node_names)


def test_select_hook_picks_the_slot(axpy_ddg, resources):
    s = SwingModuloScheduler(axpy_ddg, resources)
    first_fit = SlotPolicy().select
    # the earliest fitting slot of every window, whatever its scan order
    def earliest(v, start, end, scan_down, ps):
        return first_fit(v, start, end, False, ps)
    slots_first = s.try_ii(s.mii + 4)
    slots_early = s.try_policy(s.mii + 4, _Policy(select=earliest))
    assert slots_first is not None and slots_early is not None
    assert any(slots_early[n] != slots_first[n] for n in slots_first)
