"""Definitions 2 and 3."""

import pytest

from repro.config import ArchConfig
from repro.costmodel import (
    intra_ancestors,
    kernel_misspec_probability,
    non_preserved_memory_deps,
    preserved,
    required_skew,
    sync_delay,
)
from repro.errors import DDGError
from repro.experiments.validate import suite_loops
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.sched import schedule_sms, schedule_tms


def test_paper_formula(fig1_ddg, fig1_machine):
    # sync(n6, n0) = 7%8 - 0%8 + 1 + 3 = 11 in the SMS schedule
    sched = schedule_sms(fig1_ddg, fig1_machine)
    (e,) = [d for d in sched.inter_iteration_register_deps()
            if d.src == "n6" and d.dst == "n0"]
    assert sync_delay(sched, e, 3) == pytest.approx(11.0)


def test_self_dependence_sync_is_latency_plus_comm(fig1_ddg, fig1_machine):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    (e,) = [d for d in sched.inter_iteration_register_deps()
            if d.src == "n8" and d.dst == "n8"]
    assert sync_delay(sched, e, 3) == pytest.approx(1 + 3)


def test_sync_requires_inter_iteration(fig1_ddg, fig1_machine):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    (intra,) = [e for e in fig1_ddg.edges
                if e.src == "n0" and e.dst == "n1" and e.is_register_flow]
    with pytest.raises(DDGError):
        sync_delay(sched, intra, 3)


def test_required_skew(fig1_ddg, fig1_machine):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    (mem,) = [e for e in sched.inter_iteration_memory_deps()
              if e.dst == "n0"]
    # n5 at row 7, lat 1, n0 at row 0, d_ker 1: skew >= 8
    assert required_skew(sched, mem) == pytest.approx(8.0)


def test_preservation_needs_earlier_producer(fig1_ddg, fig1_machine):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    mem = [e for e in sched.inter_iteration_memory_deps() if e.dst == "n0"]
    regs = sched.inter_iteration_register_deps()
    # sync(n6->n0) = 11 >= 8 but n6 issues in the same row as n5 (7), not
    # earlier, so Definition 3 does NOT count it as preserved
    assert non_preserved_memory_deps(sched, mem, regs, 3) == mem


def test_non_preserved_listing(fig1_ddg, fig1_machine):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    mem = sched.inter_iteration_memory_deps()
    regs = sched.inter_iteration_register_deps()
    live = non_preserved_memory_deps(sched, mem, regs, 3)
    assert set(live) <= set(mem)


def test_negative_required_skew_always_preserved(axpy_ddg, resources):
    from repro.graph.dependence import Dependence, DepKind, DepType
    from repro.sched import Schedule
    # producer completes long before the consumer's row: preserved with
    # zero skew
    slots = {"n0": 0, "n1": 3, "n2": 0, "n3": 7, "n4": 9, "n5": 9}
    sched = Schedule(axpy_ddg, 12, slots)
    fake = Dependence("n0", "n4", DepKind.MEMORY, DepType.FLOW, 1, 3, 0.5)
    assert required_skew(sched, fake) < 0
    assert non_preserved_memory_deps(sched, [fake], [], 3) == []


def test_preserved_needs_all_three_conditions():
    """A synchronised ``(row(u), sync, v)`` preserves ``x -> y`` (row(x)
    5, required skew 4) only when ``u`` issues earlier, the skew is
    enough and ``v`` feeds ``y`` within the iteration."""
    anc_y = frozenset({"v", "y"})
    assert preserved(5, 4.0, anc_y, [(4, 4.0, "v")])
    assert not preserved(5, 4.0, anc_y, [(5, 4.0, "v")])
    assert not preserved(5, 4.0, anc_y, [(4, 3.5, "v")])
    assert not preserved(5, 4.0, anc_y, [(4, 9.0, "w")])
    assert preserved(5, 0.0, anc_y, [])


def test_intra_ancestors_follow_distance_zero_flow(fig1_ddg):
    anc = intra_ancestors(fig1_ddg)
    for e in fig1_ddg.edges:
        if e.distance == 0 and e.dtype.value == "flow":
            assert anc[e.src] | {e.dst} <= anc[e.dst]
    for name, nodes in anc.items():
        assert name in nodes


def test_motivating_p_m_is_the_papers(fig1_ddg, fig1_machine, arch):
    """Both schedules of the motivating example leave all three
    ``n5 -> n0/n2/n3`` dependences unpreserved."""
    for sched in (schedule_sms(fig1_ddg, fig1_machine),
                  schedule_tms(fig1_ddg, fig1_machine, arch)):
        assert kernel_misspec_probability(sched, arch) == \
            pytest.approx(0.0443, abs=5e-5)


def test_art_sms_synchronisation_preserves_nothing():
    """In art_loop0's SMS schedule three register dependences issue
    before the store ``n5`` and skew the threads by 10-11 cycles, over
    the 8 that ``n5 -> n3`` needs, but none feeds the load ``n3``.  So
    that certain (p = 1) dependence stays unpreserved: ``P_M`` is 1, and
    the kernel misspeculates in the simulator."""
    arch = ArchConfig.paper_default()
    (loop,) = [loop for _b, loop in suite_loops(("table2",), 1)
               if loop.name == "art_loop0"]
    ddg = build_ddg(loop, LatencyModel.for_arch(arch))
    sched = schedule_sms(ddg, ResourceModel.default(arch.issue_width))
    assert kernel_misspec_probability(sched, arch) == pytest.approx(1.0)
