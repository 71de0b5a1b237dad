"""The SlotPolicy protocol: pluggable slot acceptance and scoring.

A placement attempt (:meth:`PlacementEngine.try_place`) walks the swing
node order and, per node, scans its dependence window.  What makes a
scheduler IMS, SMS or TMS is *policy*: which conflict-free slots are
acceptable, how competing slots are ranked, and what incremental state a
commitment updates.  A :class:`SlotPolicy` packages exactly those four
hooks:

``accept(v, cycle, slots)``
    veto an otherwise conflict-free slot (TMS's C1/C2);
``score(v, cycle, slots)``
    rank acceptable slots — ``None`` (the attribute, not a return) means
    first-fit in window order (SMS's lifetime-minimal strategy);
``on_place(v, cycle, slots)``
    commit incremental state after a placement (``slots`` already
    updated);
``on_eject(v, slots)``
    notification when backtracking (IMS) evicts a node (``slots``
    already updated).

Hooks are *attributes*: a policy that doesn't participate in a stage
leaves the attribute ``None`` and the engine skips the call entirely —
the hot loop pays nothing for unused extension points.

:class:`TMSPolicy` is the paper's Figure-3 slot acceptance as a policy
instance, with two hot-path improvements over the seed implementation
(placements are byte-identical; only the work per probe changes):

* all per-DDG state (incident flow-edge tables, latencies, the
  intra-thread ancestor closures, depth/height tiebreak inputs) lives in
  a :class:`TMSContext` built once per scheduler and shared by every
  ``(II, C_delay)`` candidate;
* the C2 misspeculation product no longer rescans every scheduled
  memory dependence against every scheduled register dependence:
  committed memory dependences carry a cached *preserved* flag
  (monotone — synchronised dependences are only ever added within an
  attempt), so a probe only checks committed non-preserved dependences
  against the *new* register dependences, and the new memory
  dependences against the committed register set.  The survivors'
  ``(1 - p_e)`` factors are multiplied in the exact order the seed used
  (commit order, then the tentative placement's), keeping the float
  product bit-identical.
"""

from __future__ import annotations

from typing import Mapping

from ...config import ArchConfig, SchedulerConfig
from ...graph.ddg import DDG
from .context import EngineContext

__all__ = ["SlotPolicy", "TMSContext", "TMSPolicy"]


class SlotPolicy:
    """Base policy: first-fit, no veto, no state (plain SMS placement)."""

    name = "firstfit"

    #: hooks; ``None`` means "not used" and is skipped by the engine.
    accept = None
    score = None
    on_place = None
    on_eject = None

    def begin_attempt(self, partial) -> None:
        """Reset per-attempt incremental state (called by the engine
        before every placement attempt)."""


class TMSContext:
    """Per-DDG facts of the TMS acceptance conditions, computed once per
    scheduler and shared across every ``(II, C_delay)`` candidate.

    Incident register/memory flow edges are folded to positional tuples
    (``(neighbour, distance, producer_latency[, probability])``) in DDG
    edge order — the order the seed's ``new_deps`` walked them, which the
    C2 product depends on.
    """

    __slots__ = ("reg_in", "reg_out", "mem_in", "mem_out", "ancestors",
                 "pred0", "succ0", "depth", "height")

    def __init__(self, ddg: DDG, ctx: EngineContext) -> None:
        lat = ctx.latency
        self.reg_in: dict[str, tuple] = {}
        self.reg_out: dict[str, tuple] = {}
        self.mem_in: dict[str, tuple] = {}
        self.mem_out: dict[str, tuple] = {}
        self.pred0: dict[str, tuple] = {}
        self.succ0: dict[str, tuple] = {}
        for node in ddg.nodes:
            v = node.name
            preds = ddg.preds(v)
            succs = ddg.succs(v)
            self.reg_in[v] = tuple(
                (e.src, e.distance, lat[e.src])
                for e in preds if e.is_register_flow)
            # self edges are covered by the in-edge walk
            self.reg_out[v] = tuple(
                (e.dst, e.distance, lat[v])
                for e in succs if e.is_register_flow and e.dst != v)
            self.mem_in[v] = tuple(
                (e.src, e.distance, lat[e.src], e.probability)
                for e in preds if e.is_memory_flow)
            self.mem_out[v] = tuple(
                (e.dst, e.distance, lat[v], e.probability)
                for e in succs if e.is_memory_flow and e.dst != v)
            self.pred0[v] = tuple(
                e.src for e in preds if e.distance == 0 and e.src != v)
            self.succ0[v] = tuple(
                e.dst for e in succs if e.distance == 0 and e.dst != v)

        # Intra-thread ancestors (distance-0 flow closure) per node.  Our
        # cores issue out of order, so a synchronisation wait only delays
        # the RECV's *dependents*; a memory dependence is preserved by a
        # synchronised dependence u -> v (Definition 3) only when v feeds
        # the memory consumer within the same iteration — otherwise the
        # consumer issues regardless of the wait and the "preserved"
        # dependence can still be violated at run time.
        ancestors: dict[str, frozenset[str]] = {}
        order_by_pos = sorted(ddg.nodes, key=lambda n: n.position)
        for node in order_by_pos:
            anc: set[str] = {node.name}
            for e in ddg.preds(node.name):
                if e.distance == 0 and e.dtype.value == "flow" \
                        and e.src in ancestors:
                    anc |= ancestors[e.src]
            ancestors[node.name] = frozenset(anc)
        self.ancestors = ancestors
        self.depth = ctx.depth
        self.height = ctx.height


class TMSPolicy(SlotPolicy):
    """Figure 3's C1/C2 slot acceptance for one ``(II, C_delay, P_max)``
    candidate.

    The ``speculation=False`` mode (Section 5.2's ablation) treats memory
    flow dependences as synchronised: they join C1 and never
    misspeculate.
    """

    name = "tms"

    def __init__(self, tms_ctx: TMSContext, arch: ArchConfig,
                 config: SchedulerConfig, ii: int, c_delay: int,
                 p_max: float) -> None:
        self._tms = tms_ctx
        self._ii = ii
        self._c_delay = c_delay
        self._p_max = p_max
        self._ccom = arch.reg_comm_latency
        self._speculation = config.speculation
        # incremental Definition-4 sets over the scheduled prefix:
        #   committed register deps as (row_of_src, sync_delay, consumer)
        #   committed memory deps as [row_of_src, required_skew,
        #                             probability, consumer, preserved]
        self._sreg: list[tuple[int, float, str]] = []
        self._smem: list[list] = []
        # last (v, cycle) dependence sets — accept/score/on_place for the
        # same probe share one computation.
        self._ck: tuple[str, int] | None = None
        self._creg: list = []
        self._cmem: list = []

    def begin_attempt(self, partial) -> None:
        self._sreg.clear()
        self._smem.clear()
        self._ck = None

    # -- new-dependence enumeration ---------------------------------------

    def _deps(self, v: str, cycle: int, slots: Mapping[str, int]):
        """The inter-iteration dependences placing ``v`` at ``cycle``
        would create: ``(reg, mem)`` where reg entries are
        ``(row_src, sync_delay, consumer)`` and mem entries
        ``(row_src, sync_delay, required_skew, probability, consumer)``.

        For edge ``e`` under tentative slots the kernel distance is
        ``k = d(e) + stage(dst) - stage(src)``; ``k < 1`` means the
        dependence stays intra-iteration.  ``sync = span/k + C_reg_com``
        with ``span = row(src) - row(dst) + latency(src)`` (Definition
        2); ``req = span/k`` is C2's required skew.
        """
        key = (v, cycle)
        if self._ck == key:
            return self._creg, self._cmem
        ii = self._ii
        ccom = self._ccom
        tms = self._tms
        stage_v = cycle // ii
        row_v = cycle % ii
        new_reg = []
        for src, dist, lat_s in tms.reg_in[v]:
            s = cycle if src == v else slots.get(src)
            if s is None:
                continue
            k = dist + stage_v - s // ii
            if k < 1:
                continue
            row_s = s % ii
            span = row_s - row_v + lat_s
            new_reg.append((row_s, span / k + ccom, v))
        for dst, dist, lat_v in tms.reg_out[v]:
            s = slots.get(dst)
            if s is None:
                continue
            k = dist + s // ii - stage_v
            if k < 1:
                continue
            span = row_v - s % ii + lat_v
            new_reg.append((row_v, span / k + ccom, dst))
        new_mem = []
        for src, dist, lat_s, prob in tms.mem_in[v]:
            s = cycle if src == v else slots.get(src)
            if s is None:
                continue
            k = dist + stage_v - s // ii
            if k < 1:
                continue
            row_s = s % ii
            req = (row_s - row_v + lat_s) / k
            new_mem.append((row_s, req + ccom, req, prob, v))
        for dst, dist, lat_v, prob in tms.mem_out[v]:
            s = slots.get(dst)
            if s is None:
                continue
            k = dist + s // ii - stage_v
            if k < 1:
                continue
            req = (row_v - s % ii + lat_v) / k
            new_mem.append((row_v, req + ccom, req, prob, dst))
        self._ck = key
        self._creg = new_reg
        self._cmem = new_mem
        return new_reg, new_mem

    # -- the Figure-3 acceptance conditions ---------------------------------

    def accept(self, v: str, cycle: int, slots: Mapping[str, int]) -> bool:
        new_reg, new_mem = self._deps(v, cycle, slots)
        c_delay = self._c_delay
        # C1: every new synchronised dependence within threshold
        for _row, sync, _dst in new_reg:
            if sync > c_delay:
                return False
        if not self._speculation:
            # no-speculation mode: memory deps are synchronised too
            for _row, sync, _req, _prob, _dst in new_mem:
                if sync > c_delay:
                    return False
            return True
        if not new_mem:
            return True
        # C2: misspeculation frequency of non-preserved memory deps.  The
        # (1 - p) factors multiply in commit order then tentative order —
        # the same sequence the seed's full rescan produced.
        ancestors = self._tms.ancestors
        prod = 1.0
        for ent in self._smem:
            if ent[4]:
                continue  # preserved by a committed register dep (cached)
            row_x = ent[0]
            req = ent[1]
            anc_y = ancestors[ent[3]]
            preserved = False
            for row_u, sync, dst in new_reg:
                if row_u < row_x and sync >= req and dst in anc_y:
                    preserved = True
                    break
            if preserved:
                continue
            prod *= (1.0 - ent[2])
        sreg = self._sreg
        for row_x, _sync, req, prob, y in new_mem:
            if req <= 0:
                continue  # preserved (Definition 3, ancestor-refined)
            anc_y = ancestors[y]
            preserved = False
            for row_u, sync, dst in sreg:
                if row_u < row_x and sync >= req and dst in anc_y:
                    preserved = True
                    break
            if not preserved:
                for row_u, sync, dst in new_reg:
                    if row_u < row_x and sync >= req and dst in anc_y:
                        preserved = True
                        break
            if preserved:
                continue
            prod *= (1.0 - prob)
        if 1.0 - prod > self._p_max:
            return False
        return True

    def score(self, v: str, cycle: int, slots: Mapping[str, int]) -> float:
        """The largest sync delay this placement would introduce (0 if
        none): TMS picks the slot with the shortest synchronisation
        delay among the acceptable ones (Section 4.1).

        A sub-unit tiebreak prefers slots whose kernel row leaves
        same-stage room for the node's still-unplaced same-iteration
        neighbours — *below* for its feeder chain (depth), *above* for
        its consumer chain (height).  Placing a node flush against a
        stage boundary forces that chain across the boundary and turns
        intra-thread dependences into synchronised ones.
        """
        new_reg, new_mem = self._deps(v, cycle, slots)
        worst = 0.0
        for _row, sync, _dst in new_reg:
            if sync > worst:
                worst = sync
        if not self._speculation:
            for _row, sync, _req, _prob, _dst in new_mem:
                if sync > worst:
                    worst = sync
        tms = self._tms
        row = cycle % self._ii
        need_below = tms.depth[v]
        if need_below > 0 and any(p not in slots for p in tms.pred0[v]):
            shortfall = need_below - row
            if shortfall > 0:
                worst += min(0.45, 0.45 * shortfall / need_below)
        need_above = tms.height[v]
        if need_above > 0 and any(s not in slots for s in tms.succ0[v]):
            shortfall = need_above - (self._ii - 1 - row)
            if shortfall > 0:
                worst += min(0.45, 0.45 * shortfall / need_above)
        return worst

    def on_place(self, v: str, cycle: int, slots: Mapping[str, int]) -> None:
        new_reg, new_mem = self._deps(v, cycle, slots)
        sreg = self._sreg
        smem = self._smem
        if new_reg:
            sreg.extend(new_reg)
            # the new synchronised deps may preserve previously committed
            # memory deps: refresh the cached flags (monotone within an
            # attempt — register deps are only ever added).
            ancestors = self._tms.ancestors
            for ent in smem:
                if ent[4]:
                    continue
                row_x = ent[0]
                req = ent[1]
                anc_y = ancestors[ent[3]]
                for row_u, sync, dst in new_reg:
                    if row_u < row_x and sync >= req and dst in anc_y:
                        ent[4] = True
                        break
        if self._speculation:
            ancestors = self._tms.ancestors
            for row_x, _sync, req, prob, y in new_mem:
                preserved = req <= 0
                if not preserved:
                    anc_y = ancestors[y]
                    for row_u, sync, dst in sreg:
                        if row_u < row_x and sync >= req and dst in anc_y:
                            preserved = True
                            break
                smem.append([row_x, req, prob, y, preserved])
