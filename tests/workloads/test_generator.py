"""Synthetic loop generator."""

import pytest

from repro.config import ArchConfig
from repro.errors import WorkloadError
from repro.graph import build_ddg, rec_mii
from repro.ir import run_sequential, validate_loop
from repro.machine import LatencyModel
from repro.workloads import LoopShape, SyntheticLoopGenerator


def gen(shape, seed=7, name="g"):
    return SyntheticLoopGenerator(shape, seed).generate(name)


def test_instruction_count_exact():
    for n in (8, 16, 31, 64):
        loop = gen(LoopShape(n_instr=n))
        assert len(loop) == n


def test_deterministic():
    shape = LoopShape(n_instr=20, n_spec_deps=1)
    a, b = gen(shape, seed=5), gen(shape, seed=5)
    assert [str(i) for i in a.body] == [str(i) for i in b.body]
    c = gen(shape, seed=6)
    assert [str(i) for i in c.body] != [str(i) for i in a.body]


def test_generated_loops_are_valid_and_executable():
    for seed in range(5):
        loop = gen(LoopShape(n_instr=24, n_reg_recurrences=2,
                             n_mem_recurrences=1, n_spec_deps=2), seed=seed)
        validate_loop(loop)
        run_sequential(loop, 16)


def test_reassociated_recurrence_cycle_is_short():
    loop = gen(LoopShape(n_instr=16, n_reg_recurrences=1,
                         reg_recurrence_len=4, n_spec_deps=0, n_counters=1))
    ddg = build_ddg(loop, LatencyModel())
    # the accumulator cycle is a single 2-cycle add
    assert rec_mii(ddg, ["n3"]) <= 2 or rec_mii(ddg) <= 8


def test_serial_recurrence_raises_rec_mii():
    flat = gen(LoopShape(n_instr=16, n_reg_recurrences=1,
                         reg_recurrence_len=4, serial_recurrence=False,
                         n_spec_deps=0, n_counters=1), seed=3)
    serial = gen(LoopShape(n_instr=16, n_reg_recurrences=1,
                           reg_recurrence_len=4, serial_recurrence=True,
                           n_spec_deps=0, n_counters=1), seed=3)
    lat = LatencyModel()
    assert rec_mii(build_ddg(serial, lat)) >= rec_mii(build_ddg(flat, lat))


def test_mem_recurrence_distance_controls_rec_mii():
    near = gen(LoopShape(n_instr=16, n_reg_recurrences=0,
                         n_mem_recurrences=1, mem_rec_ops=2,
                         mem_rec_distance=1, n_spec_deps=0, n_counters=1))
    far = gen(LoopShape(n_instr=16, n_reg_recurrences=0,
                        n_mem_recurrences=1, mem_rec_ops=2,
                        mem_rec_distance=4, n_spec_deps=0, n_counters=1))
    lat = LatencyModel()
    assert rec_mii(build_ddg(near, lat)) > rec_mii(build_ddg(far, lat))


def test_spec_deps_present():
    loop = gen(LoopShape(n_instr=20, n_spec_deps=2, spec_probability=0.01))
    hinted = [i for i in loop.body if i.alias_hints]
    assert len(hinted) == 2
    assert all(h.probability == 0.01 for i in hinted for h in i.alias_hints)


def test_invalid_shapes():
    with pytest.raises(WorkloadError):
        LoopShape(n_instr=2)
    with pytest.raises(WorkloadError):
        LoopShape(n_instr=10, spec_probability=2.0)
    with pytest.raises(WorkloadError):
        LoopShape(n_instr=10, mul_fraction=-0.1)
