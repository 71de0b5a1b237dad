"""Synthetic innermost-loop generator.

Produces concrete, executable :class:`~repro.ir.loop.Loop` bodies whose DDGs
have controllable population statistics — instruction count, opcode mix,
recurrence structure (number and latency of non-trivial SCCs), counter-fed
indirect accesses (the ``n6 -> n0`` pattern that creates loop-carried
register dependences), and profile-probability speculated memory
dependences.  These are the knobs the paper's Table 2 statistics pin down
per benchmark (see :mod:`repro.workloads.specfp` for the calibration).

Construction recipe (all seeded, fully deterministic):

* **counters** — ``idx = iadd idx, stride`` defined at the *end* of the
  body and consumed at the beginning, creating distance-1 register
  dependences that become SEND/RECV channels on the SpMT machine;
* **register recurrences** — accumulator chains ``acc = f(..., acc)`` of a
  chosen latency (the chain's RecMII);
* **memory recurrences** — ``store M[i+1] <- f(load M[i])``: exact
  distance-1 memory flow dependences with probability 1 (lucas's dominant
  SCC is this shape);
* **work units** — independent load/compute/store strands providing ILP;
* **speculated dependences** — indirect loads with alias hints naming a
  store at distance 1 with a small profile probability, each pair on its
  own array so nothing else aliases it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import WorkloadError
from ..ir.builder import LoopBuilder
from ..ir.instruction import AliasHint
from ..ir.loop import Loop
from ..ir.opcode import Opcode
from ..ir.operand import Reg

__all__ = ["LoopShape", "SyntheticLoopGenerator"]

#: arithmetic opcodes (latency under the default model in parentheses)
_ARITH_LIGHT = (Opcode.FADD, Opcode.FSUB)          # 2 cycles
_ARITH_HEAVY = (Opcode.FMUL,)                      # 4 cycles
_ARITH_DIV = (Opcode.FDIV,)                        # 12 cycles

_ARRAY_SIZE = 256


@dataclass(frozen=True)
class LoopShape:
    """Target shape of one generated loop.

    Attributes
    ----------
    n_instr:
        Total instruction-count target (hit within +-1; recurrence chains
        are never truncated).
    n_counters:
        Stride counters (each is 1 instruction + feeds addresses).
    n_reg_recurrences / reg_recurrence_len:
        Number and total op-length of accumulator strands.  By default only
        the final accumulator add sits on the loop-carried cycle (the
        feeder ops are reassociated off it, as compilers do), so the cycle
        costs 2 cycles and the strand's sync-delay floor is
        ``2 + C_reg_com``.
    serial_recurrence:
        Put the *whole* chain on the carried cycle instead (a truly serial
        recurrence like wupwise's dominant loop): RecII grows with the
        chain and no scheduler can buy TLP without paying the chain's
        latency in sync delay.
    n_mem_recurrences:
        ``A[i+d] = f(A[i])`` strands with probability-1 memory flow
        dependences.
    mem_rec_ops / mem_rec_use_mul / mem_rec_distance:
        Arithmetic depth, heavy-op choice and dependence distance of the
        memory recurrences: RecII contribution is roughly
        ``(3 + ops_latency + 1) / distance`` (art's suite loops are
        recurrence-bound this way).
    n_spec_deps:
        Indirect-load/store pairs left to speculation.
    spec_probability:
        Profile probability assigned to each speculated dependence.
    mul_fraction / div_fraction:
        Mix of heavy FP ops inside work units.
    store_fraction:
        Fraction of work units that write their result to memory.
    """

    n_instr: int
    n_counters: int = 2
    n_reg_recurrences: int = 1
    reg_recurrence_len: int = 2
    serial_recurrence: bool = False
    n_mem_recurrences: int = 0
    mem_rec_ops: int = 1
    mem_rec_use_mul: bool = False
    mem_rec_distance: int = 1
    n_spec_deps: int = 1
    spec_probability: float = 0.02
    mul_fraction: float = 0.3
    div_fraction: float = 0.0
    store_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n_instr < 4:
            raise WorkloadError(f"n_instr must be >= 4, got {self.n_instr}")
        if not 0.0 <= self.spec_probability <= 1.0:
            raise WorkloadError("spec_probability must be in [0, 1]")
        for name in ("mul_fraction", "div_fraction", "store_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise WorkloadError(f"{name} must be in [0, 1]")


class SyntheticLoopGenerator:
    """Seeded generator of loops matching a :class:`LoopShape`."""

    def __init__(self, shape: LoopShape, seed: int) -> None:
        self.shape = shape
        self.rng = np.random.default_rng(seed)

    # -- helpers --------------------------------------------------------------

    def _pick_arith(self) -> Opcode:
        u = self.rng.random()
        if u < self.shape.div_fraction:
            return _ARITH_DIV[0]
        if u < self.shape.div_fraction + self.shape.mul_fraction:
            return _ARITH_HEAVY[0]
        return _ARITH_LIGHT[int(self.rng.integers(len(_ARITH_LIGHT)))]

    # -- main entry --------------------------------------------------------------

    def generate(self, name: str) -> Loop:
        shape = self.shape
        b = LoopBuilder(name)
        n_id = 0

        def label() -> str:
            nonlocal n_id
            lbl = f"n{n_id}"
            n_id += 1
            return lbl

        arrays: list[str] = []

        def new_array(prefix: str) -> str:
            arr = f"{prefix}{len(arrays)}"
            arrays.append(arr)
            b.arrays[arr] = _ARRAY_SIZE
            return arr

        emitted = 0
        budget = shape.n_instr

        # ---- counters (defined at the end; reserve their budget now) ----
        counters = [f"idx{c}" for c in range(shape.n_counters)]
        for c, reg in enumerate(counters):
            b.live_ins[reg] = float(c + 1)
        budget -= shape.n_counters

        values: list[str] = []  # registers usable as arithmetic inputs

        # ---- register recurrences ----
        for r in range(shape.n_reg_recurrences):
            acc = f"acc{r}"
            b.live_ins[acc] = 1.0 + r
            length = max(1, shape.reg_recurrence_len)
            if emitted + length > budget:
                break
            if shape.serial_recurrence:
                # truly serial: every op reads the previous link, the
                # first reads last iteration's accumulator.
                prev = acc
                for k in range(length - 1):
                    t = f"rc{r}_{k}"
                    b.op(label(), self._pick_arith(), t, prev, 0.5 + 0.25 * k)
                    prev = t
                    emitted += 1
                b.op(label(), self._pick_arith(), acc, prev, 1.0 + 0.125 * r)
                emitted += 1
            else:
                # reassociated: feeders form an off-cycle chain; only the
                # final add carries the accumulator across iterations.
                prev: object = 0.5
                for k in range(length - 1):
                    t = f"rc{r}_{k}"
                    b.op(label(), self._pick_arith(), t, prev, 0.5 + 0.25 * k)
                    prev = Reg(t)
                    emitted += 1
                b.op(label(), Opcode.FADD, acc, acc, prev)
                emitted += 1
            values.append(acc)

        # ---- memory recurrences ----
        for m in range(shape.n_mem_recurrences):
            cost = 2 + max(1, shape.mem_rec_ops)
            if emitted + cost > budget:
                break
            arr = new_array("M")
            lv = f"mr{m}_l"
            b.load(label(), lv, arr, coeff=1, offset=0)
            prev = lv
            for k in range(max(1, shape.mem_rec_ops)):
                tv = f"mr{m}_t{k}"
                op = (Opcode.FMUL if shape.mem_rec_use_mul and k == 0
                      else Opcode.FADD)
                b.op(label(), op, tv, prev, 0.75 + 0.125 * k)
                prev = tv
            b.store(label(), arr, Reg(prev),
                    coeff=1, offset=max(1, shape.mem_rec_distance))
            emitted += cost
            values.append(prev)

        # ---- speculated-dependence pairs ----
        for s in range(shape.n_spec_deps):
            if emitted + 3 > budget:
                break
            arr = new_array("S")
            store_lbl = f"sp{s}_st"
            load_lbl = f"sp{s}_ld"
            lv = f"sp{s}_v"
            counter = counters[s % len(counters)]
            # indirect load (address from a counter defined later ->
            # distance-1 register dep) with a declared probabilistic flow
            # dependence on the strand's own store.
            b.load(load_lbl, lv, arr, index_reg=Reg(counter),
                   alias_hints=(AliasHint(store_lbl, distance=1,
                                          probability=shape.spec_probability),))
            tv = f"sp{s}_t"
            b.op(label(), self._pick_arith(), tv, lv, 1.25)
            b.store(store_lbl, arr, Reg(tv), coeff=1, offset=0)
            emitted += 3
            values.append(tv)

        # ---- independent work units ----
        # stores are deferred to the end of the body (loads cluster early,
        # stores late, as compiled numerical code does) — the resulting
        # lifetime overlap is what gives real SPEC loops their MaxLive.
        pending_stores: list[tuple[str, str]] = []
        unit = 0
        while emitted < budget:
            room = budget - emitted
            if room >= 3 and self.rng.random() < shape.store_fraction:
                arr_in = new_array("A")
                arr_out = new_array("B")
                lv, tv = f"w{unit}_l", f"w{unit}_t"
                off = int(self.rng.integers(0, 4))
                b.load(label(), lv, arr_in, coeff=1, offset=off)
                rhs = self._work_operand(values, counters)
                b.op(label(), self._pick_arith(), tv, lv, rhs)
                pending_stores.append((arr_out, tv))
                emitted += 3
                values.append(tv)
            elif room >= 2:
                arr_in = new_array("A")
                lv, tv = f"w{unit}_l", f"w{unit}_t"
                b.load(label(), lv, arr_in, coeff=1,
                       offset=int(self.rng.integers(0, 4)))
                b.op(label(), self._pick_arith(), tv, lv,
                     self._work_operand(values, counters))
                emitted += 2
                values.append(tv)
            else:
                tv = f"w{unit}_t"
                b.op(label(), self._pick_arith(), tv,
                     self._work_operand(values, counters), 0.5)
                emitted += 1
                values.append(tv)
            unit += 1

        # ---- deferred work-unit stores ----
        for arr_out, tv in pending_stores:
            b.store(label(), arr_out, Reg(tv), coeff=1, offset=0)

        # ---- counters last (uses above read the previous iteration) ----
        for c, reg in enumerate(counters):
            b.op(f"ctr{c}", Opcode.IADD, reg, reg, float(2 * c + 3))
            emitted += 1

        return b.build()

    def _work_operand(self, values: list[str], counters: list[str]):
        """A second operand for a work-unit op: an earlier value, a
        counter (creating a loop-carried register dep) or a constant."""
        u = self.rng.random()
        if values and u < 0.5:
            return Reg(values[int(self.rng.integers(len(values)))])
        if counters and u < 0.7:
            return Reg(counters[int(self.rng.integers(len(counters)))])
        return float(np.round(self.rng.uniform(0.25, 2.0), 3))
