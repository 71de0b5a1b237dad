"""Reference implementations the scheduling engine is checked against.

None is used by the program; each is the straightforward form of what
the engine computes faster:

* :func:`compute_window` — the SMS scheduling window (Section 4.1 of the
  paper), re-walking every incident edge of the node being placed.  The
  engine's per-DDG :class:`~repro.sched.engine.WindowTable` must
  reproduce it exactly at every II.
* :class:`PerProbeTMSPolicy` — Figure 3's C1/C2 slot acceptance
  evaluated slot by slot: every row of the window is probed for
  resources, then C1, then C2, then scored.  The engine's
  :class:`~repro.sched.engine.TMSPolicy` scans each window once, with C1
  as a row interval, and must pick the same slot.
* :func:`reference_search` — the TMS ``(II, C_delay)`` search placing
  every candidate it does not prune from scratch.  The program's search
  resumes each candidate from the placement prefix it shares with the
  last one placed at its II and must give the same schedule and events.

``compute_window``: for the node ``v`` being placed against a partial
schedule,

* ``Estart`` — earliest legal slot w.r.t. already scheduled
  *predecessors*: ``max(slot(u) + delay(u,v) - II*d(u,v))``;
* ``Lstart`` — latest legal slot w.r.t. already scheduled *successors*:
  ``min(slot(w) - delay(v,w) + II*d(v,w))``.

The window and its scan direction depend on which neighbours are already
scheduled (this is the "swing"): predecessors only → ``[Estart,
Estart+II-1]`` scanned upward (place close after producers); successors
only → ``[Lstart-II+1, Lstart]`` scanned *downward* (place close before
consumers — the motivating example's ``[7, 0]`` window for ``n6``); both →
``[Estart, min(Lstart, Estart+II-1)]`` upward; neither → ``[ASAP,
ASAP+II-1]`` upward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import repro.sched.tms as tms_mod
from repro.config import ArchConfig, SchedulerConfig
from repro.costmodel.exectime import objective_f
from repro.errors import SchedulingError
from repro.graph.ddg import DDG
from repro.graph.paths import NodeMetrics
from repro.obs import telemetry
from repro.sched import Schedule, ThreadSensitiveScheduler
from repro.sched.engine import SlotPolicy, TMSContext

__all__ = ["PerProbeTMSPolicy", "SchedulingWindow", "compute_window",
           "reference_search"]


@dataclass(frozen=True)
class SchedulingWindow:
    """An inclusive slot range plus the order in which slots are tried."""

    start: int
    end: int
    direction: str  # "up" | "down"

    def candidates(self) -> list[int]:
        if self.start > self.end:
            return []
        slots = list(range(self.start, self.end + 1))
        if self.direction == "down":
            slots.reverse()
        return slots

    @property
    def empty(self) -> bool:
        return self.start > self.end


def compute_window(ddg: DDG, v: str, partial: Mapping[str, int], ii: int,
                   metrics: Mapping[str, NodeMetrics],
                   order_direction: str = "top-down",
                   seed_high: bool = False) -> SchedulingWindow:
    """The scheduling window of ``v`` against ``partial`` under ``ii``.

    ``order_direction`` is the sweep direction ``v`` was *ordered* in; it
    decides the scan direction when both neighbours are scheduled (SMS
    places bottom-up-ordered nodes as late as possible, near their
    consumers, and top-down-ordered nodes as early as possible).

    ``seed_high`` flips the scan of the unconstrained ("no scheduled
    neighbours") window to descending: the seed anchors at the top of its
    II range, maximising the same-stage headroom left for the feeder
    chains scheduled after it.
    """
    estart: int | None = None
    for e in ddg.preds(v):
        if e.src in partial:
            bound = partial[e.src] + e.delay - ii * e.distance
            estart = bound if estart is None else max(estart, bound)
    lstart: int | None = None
    for e in ddg.succs(v):
        if e.dst in partial:
            bound = partial[e.dst] - e.delay + ii * e.distance
            lstart = bound if lstart is None else min(lstart, bound)

    if estart is not None and lstart is not None:
        if order_direction == "bottom-up":
            return SchedulingWindow(max(estart, lstart - ii + 1), lstart,
                                    "down")
        return SchedulingWindow(estart, min(lstart, estart + ii - 1), "up")
    if estart is not None:
        return SchedulingWindow(estart, estart + ii - 1, "up")
    if lstart is not None:
        return SchedulingWindow(lstart - ii + 1, lstart, "down")
    asap = metrics[v].depth
    if seed_high:
        return SchedulingWindow(asap, asap + ii - 1, "down")
    return SchedulingWindow(asap, asap + ii - 1, "up")


class PerProbeTMSPolicy(SlotPolicy):
    """Figure 3's C1/C2 slot acceptance, one probe at a time.

    :meth:`select` walks the window in order; each resource-feasible slot
    is vetoed by :meth:`accept` (C1, then C2) or ranked by :meth:`score`;
    the minimum-score slot wins, ties to window order, stopping at a
    perfect ``score <= 0``.
    """

    def __init__(self, tms_ctx: TMSContext, arch: ArchConfig,
                 config: SchedulerConfig, ii: int, c_delay: int,
                 p_max: float) -> None:
        self._tms = tms_ctx
        self._ii = ii
        self._c_delay = c_delay
        self._p_max = p_max
        self._ccom = arch.reg_comm_latency
        self._speculation = config.speculation
        # committed dependences: register (row_src, sync, consumer),
        # memory (row_src, required_skew, probability, consumer)
        self._sreg: list[tuple[int, float, str]] = []
        self._smem: list[tuple[int, float, float, str]] = []

    def begin_attempt(self, partial) -> None:
        self._sreg.clear()
        self._smem.clear()

    def select(self, v, start, end, scan_down, ps):
        cycles = range(end, start - 1, -1) if scan_down \
            else range(start, end + 1)
        best_cycle = None
        best_score = 0.0
        probes = 0
        for cycle in cycles:
            probes += 1
            if not ps.fits(v, cycle):
                continue
            if not self.accept(v, cycle, ps.slots):
                continue
            s = self.score(v, cycle, ps.slots)
            if best_cycle is None or s < best_score:
                best_cycle, best_score = cycle, s
                if s <= 0.0:
                    break
        return best_cycle, probes

    def deps(self, v: str, cycle: int, slots: Mapping[str, int]):
        """The inter-iteration dependences placing ``v`` at ``cycle``
        would create: ``(reg, mem)`` where reg entries are
        ``(row_src, sync_delay, consumer)`` and mem entries
        ``(row_src, sync_delay, required_skew, probability, consumer)``.
        """
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
        return new_reg, new_mem

    def _synced(self, new_reg, new_mem) -> list[float]:
        syncs = [sync for _row, sync, _dst in new_reg]
        if not self._speculation:
            syncs += [sync for _row, sync, _req, _p, _dst in new_mem]
        return syncs

    def accept(self, v: str, cycle: int, slots: Mapping[str, int]) -> bool:
        new_reg, new_mem = self.deps(v, cycle, slots)
        # C1: every new synchronised dependence within threshold
        syncs = self._synced(new_reg, new_mem)
        if any(sync > self._c_delay for sync in syncs):
            return False
        if not self._speculation or not new_mem:
            return True
        # C2: misspeculation frequency of the non-preserved memory deps,
        # rescanned in full; factors multiply in commit order, then the
        # tentative placement's.
        ancestors = self._tms.ancestors
        reg = self._sreg + new_reg
        mem = self._smem + [(row, req, prob, y)
                            for row, _s, req, prob, y in new_mem]
        prod = 1.0
        for row_x, req, prob, y in mem:
            if req <= 0:
                continue
            if any(row_u < row_x and sync >= req and dst in ancestors[y]
                   for row_u, sync, dst in reg):
                continue
            prod *= (1.0 - prob)
        return 1.0 - prod <= self._p_max

    def score(self, v: str, cycle: int, slots: Mapping[str, int]) -> float:
        new_reg, new_mem = self.deps(v, cycle, slots)
        worst = 0.0
        for sync in self._synced(new_reg, new_mem):
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
        new_reg, new_mem = self.deps(v, cycle, slots)
        self._sreg.extend(new_reg)
        if self._speculation:
            self._smem.extend((row, req, prob, y)
                              for row, _sync, req, prob, y in new_mem)


def reference_search(tms: ThreadSensitiveScheduler, p_max: float
                     ) -> Schedule:
    """``tms``'s search at one ``P_max``, every candidate it places
    placed from scratch.

    Candidates are walked by increasing ``F`` under the attempt budget.
    One is ``pruned`` when the last candidate placed at its II failed
    with a ``replay_floor`` above its ``C_delay``; every other one runs
    both seed passes from the first node.  An exhausted walk falls back
    to first-fit placement with seeds anchored high, at the lowest II
    that admits it.  Emits the search's ``sched`` events.
    """
    tracer = telemetry.current().tracer
    if tracer.enabled:
        tracer.emit("sched", "tms.search", loop=tms.ddg.name, p_max=p_max,
                    mii=tms.mii, max_ii=tms.max_ii, ncore=tms.arch.ncore)
    attempts = 0
    failed: dict[int, tuple[int, float]] = {}
    for index, (f_value, cd, ii) in enumerate(tms._candidates()):
        if attempts >= tms_mod.MAX_CANDIDATES:
            if tracer.enabled:
                tracer.emit("sched", "tms.budget_exhausted",
                            loop=tms.ddg.name, attempts=attempts)
            break
        attempts += 1
        fail_lo, fail_hi = failed.get(ii, (0, 0.0))
        if fail_lo <= cd < fail_hi:
            if tracer.enabled:
                tms._emit_candidate(tracer, index, ii, cd, f_value,
                                    "pruned", replays=fail_lo)
            continue
        slots, replay_floor = tms._try_tms(ii, cd, p_max)
        if slots is None:
            failed[ii] = (cd, replay_floor)
            if tracer.enabled:
                tms._emit_candidate(
                    tracer, index, ii, cd, f_value, "reject",
                    replay_floor=(replay_floor if replay_floor < math.inf
                                  else None))
            continue
        if tracer.enabled:
            tms._emit_candidate(tracer, index, ii, cd, f_value, "accept")
        return tms._finish(ii, slots, cd, p_max, f_value, fallback=False)
    for ii in range(tms.mii, tms.max_ii + 1):
        cd = tms._c_delay_cap(ii)
        slots = tms.try_ii(ii, seed_high=True)
        if slots is not None:
            if tracer.enabled:
                tracer.emit("sched", "tms.fallback", loop=tms.ddg.name,
                            ii=ii, c_delay=cd, outcome="accept")
            return tms._finish(ii, slots, cd, 1.0,
                               objective_f(ii, cd, tms.arch), fallback=True)
    raise SchedulingError(f"TMS failed on {tms.ddg.name!r}")
