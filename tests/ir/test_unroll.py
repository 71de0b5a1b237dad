"""Loop unrolling (the paper's future-work extension)."""

import pytest

from repro.errors import IRError
from repro.graph import build_ddg
from repro.ir import parse_loop, unroll_loop
from repro.ir.unroll import check_unroll_equivalence
from repro.machine import LatencyModel
from repro.workloads import DOACROSS_LOOPS, motivating_loop


def test_factor_one_is_identity(axpy_loop):
    assert unroll_loop(axpy_loop, 1) is axpy_loop


def test_invalid_factor(axpy_loop):
    with pytest.raises(IRError):
        unroll_loop(axpy_loop, 0)


def test_instruction_count(axpy_loop):
    assert len(unroll_loop(axpy_loop, 3)) == 3 * len(axpy_loop)


@pytest.mark.parametrize("factor", [2, 3, 4])
def test_axpy_equivalence(axpy_loop, factor):
    assert check_unroll_equivalence(axpy_loop, factor, iterations=10)


@pytest.mark.parametrize("factor", [2, 4])
def test_recurrent_equivalence(recurrent_loop, factor):
    assert check_unroll_equivalence(recurrent_loop, factor, iterations=10)


def test_motivating_equivalence():
    assert check_unroll_equivalence(motivating_loop(), 2, iterations=12)


def test_small_doacross_equivalence():
    small = [sl for sl in DOACROSS_LOOPS if len(sl.loop) <= 20]
    assert small
    for sl in small:
        assert check_unroll_equivalence(sl.loop, 2, iterations=10)


def test_induction_variable_reads():
    loop = parse_loop("""
loop iv
array A 64
livein s 0.0
n0: t = fmul i, 2.0
n1: s = fadd s, t
n2: store A[i], t
n3: v = load A[2*i+1]
""")
    assert check_unroll_equivalence(loop, 3, iterations=8)


def test_affine_subscripts_rescaled(axpy_loop):
    unrolled = unroll_loop(axpy_loop, 2)
    idx0 = unrolled.instruction("n0__u0").mem.index
    idx1 = unrolled.instruction("n0__u1").mem.index
    assert (idx0.coeff, idx0.offset) == (2, 0)
    assert (idx1.coeff, idx1.offset) == (2, 1)


def test_carried_dependence_distance_shrinks(recurrent_loop):
    # the original distance-2 memory recurrence becomes distance-1 at
    # factor 2: the recurrence amortises over coarser threads
    lat = LatencyModel()
    orig = build_ddg(recurrent_loop, lat)
    unrolled = build_ddg(unroll_loop(recurrent_loop, 2), lat)
    orig_d = {e.distance for e in orig.memory_flow_edges()}
    new_d = {e.distance for e in unrolled.memory_flow_edges()}
    assert 2 in orig_d
    assert 1 in new_d


def test_alias_hints_retargeted():
    loop = parse_loop("""
loop hints
array A 64
livein p 1.0
n0: v = load A[p] !alias n2:1:0.01
n1: w = fadd v, 1.0
n2: store A[p], w
n3: p = iadd p, 3
""")
    unrolled = unroll_loop(loop, 2)
    h0 = unrolled.instruction("n0__u0").alias_hints[0]
    h1 = unrolled.instruction("n0__u1").alias_hints[0]
    # copy 0's load depends on copy 1's store one unrolled iteration back;
    # copy 1's load depends on copy 0's store in the same unrolled iteration
    assert (h0.producer, h0.distance) == ("n2__u1", 1)
    assert (h1.producer, h1.distance) == ("n2__u0", 0)


def test_unrolled_loop_schedules(axpy_loop, resources, arch):
    from repro.sched import schedule_tms, validate_schedule
    ddg = build_ddg(unroll_loop(axpy_loop, 4), LatencyModel.for_arch(arch))
    sched = schedule_tms(ddg, resources, arch)
    validate_schedule(sched, resources)


def test_granularity_trades_communication(arch, resources):
    # more original iterations per thread -> fewer SEND/RECV pairs per
    # original iteration (the paper's motivation for unrolling)
    from repro.session import get_session
    sl = next(s for s in DOACROSS_LOOPS if len(s.loop) <= 20)
    base, coarse = get_session().compile_many(
        [sl.loop, unroll_loop(sl.loop, 4)], arch, resources)
    assert coarse.tms.pipelined.comm.pairs_per_iteration / 4 < \
        base.tms.pipelined.comm.pairs_per_iteration
