"""Input-validation hardening: malformed loops, DDGs and configs fail
with *typed* ``repro.errors`` exceptions, never a raw ``KeyError`` /
``ZeroDivisionError`` / ``IndexError`` deep inside a scheduler or the
simulator.  Table-driven: every case is (constructor, expected error)."""

from __future__ import annotations

import pytest

from repro.config import ArchConfig, SchedulerConfig, SimConfig
from repro.errors import DDGError, IRError, MachineError, ReproError
from repro.graph.ddg import DDG, DDGNode
from repro.graph.dependence import Dependence, DepKind, DepType
from repro.ir.instruction import Instruction
from repro.ir.loop import Loop
from repro.ir.opcode import Opcode


def _node(name="a", latency=2, position=0):
    return DDGNode(name, Opcode.FADD, latency, position)


def _dep(src="a", dst="b", **kw):
    defaults = dict(kind=DepKind.REGISTER, dtype=DepType.FLOW,
                    distance=1, delay=2)
    defaults.update(kw)
    return Dependence(src, dst, **defaults)


def _inst(name="n0", dest="x"):
    return Instruction(name=name, opcode=Opcode.FADD, dest=dest)


CASES = [
    # (case id, zero-arg constructor that must raise, expected error type)
    ("empty-loop-body",
     lambda: Loop(name="l", body=()), IRError),
    ("bad-coverage",
     lambda: Loop(name="l", body=(_inst(),), coverage=1.5), IRError),
    ("duplicate-register-def",
     lambda: Loop(name="l", body=(_inst("n0", "x"),
                                  _inst("n1", "x"))).definers(), IRError),
    ("empty-ddg",
     lambda: DDG("g", [], []), DDGError),
    ("duplicate-ddg-node",
     lambda: DDG("g", [_node(), _node()], []), DDGError),
    ("edge-to-unknown-node",
     lambda: DDG("g", [_node()], [_dep("a", "ghost")]), DDGError),
    ("distance-zero-self-dep",
     lambda: _dep("a", "a", distance=0), DDGError),
    ("negative-distance",
     lambda: _dep(distance=-1), DDGError),
    ("negative-delay",
     lambda: _dep(delay=-2), DDGError),
    ("probability-above-one",
     lambda: _dep(probability=1.5), DDGError),
    ("nonpositive-node-latency",
     lambda: _node(latency=0), DDGError),
    ("zero-cores",
     lambda: ArchConfig(ncore=0), MachineError),
    ("zero-issue-width",
     lambda: ArchConfig(issue_width=0), MachineError),
    ("negative-overhead",
     lambda: ArchConfig(spawn_overhead=-1), MachineError),
    ("bad-miss-rate",
     lambda: ArchConfig(l1_miss_rate=1.5), MachineError),
    ("bad-p-max",
     lambda: SchedulerConfig(p_max=2.0), MachineError),
    ("zero-iterations",
     lambda: SimConfig(iterations=0), MachineError),
]


@pytest.mark.parametrize("case_id,build,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_malformed_input_raises_typed_error(case_id, build, expected):
    with pytest.raises(expected):
        build()


@pytest.mark.parametrize("case_id,build,expected",
                         CASES, ids=[c[0] for c in CASES])
def test_typed_errors_are_repro_errors(case_id, build, expected):
    """One `except ReproError` at a driver's top level catches them all."""
    assert issubclass(expected, ReproError)
    with pytest.raises(ReproError):
        build()
