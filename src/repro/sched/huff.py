"""Huff's lifetime-sensitive modulo scheduling (PLDI'93) — the paper's
reference [9], implemented as a third baseline.

Huff schedules operations in order of *dynamic slack*: after every
placement, earliest/latest start bounds (``Estart``/``Lstart``) are
re-propagated through the dependence graph, and the op with the least
freedom goes next.  Placement is bidirectional — ops pulled on by their
producers are placed as early as possible, ops feeding already-placed
consumers as late as possible — which is what keeps value lifetimes short
(the "lifetime-sensitive" in the title, and the strategy the TMS paper
groups with SMS as "tightly scheduled" / "lifetime-minimal").

When an op has no conflict-free slot in its window it is force-placed at
its earliest bound and conflicting ops are ejected (the same eviction
discipline as Rau's IMS, shared via the unified engine's
:class:`~repro.sched.engine.PlacementEngine`), under IMS's per-II budget.
It reads MII, LDP, the node metrics and the engine from a
:class:`~repro.sched.sms.LoopAnalysis`.
"""

from __future__ import annotations

from ..graph.ddg import DDG
from ..machine.resources import ResourceModel
from .engine import PartialSchedule, PlacementEngine
from .schedule import Schedule
from .sms import ModuloScheduler

__all__ = ["HuffModuloScheduler", "schedule_huff"]

#: Lstart horizon for ops with no scheduled downstream anchor.
_HORIZON_STAGES = 4


class HuffModuloScheduler(ModuloScheduler):
    """Slack-driven bidirectional modulo scheduling."""

    algorithm_name = "Huff"

    # -- bound propagation -------------------------------------------------

    def _bounds(self, ii: int, placed: dict[str, int]
                ) -> tuple[dict[str, int], dict[str, int]]:
        """Dynamic Estart/Lstart for every node (relaxation to fixpoint)."""
        names = self.ddg.node_names
        horizon = self.ldp + _HORIZON_STAGES * ii
        depth = self.engine.ctx.depth
        height = self.engine.ctx.height
        est = {n: (placed[n] if n in placed else depth[n]) for n in names}
        lst = {n: (placed[n] if n in placed else horizon - height[n])
               for n in names}
        for _ in range(len(names)):
            changed = False
            for e in self.ddg.edges:
                lo = est[e.src] + e.delay - ii * e.distance
                if e.dst not in placed and lo > est[e.dst]:
                    est[e.dst] = lo
                    changed = True
                hi = lst[e.dst] - e.delay + ii * e.distance
                if e.src not in placed and hi < lst[e.src]:
                    lst[e.src] = hi
                    changed = True
            if not changed:
                break
        return est, lst

    # -- one attempt -----------------------------------------------------------

    def try_ii(self, ii: int) -> dict[str, int] | None:
        budget = self.engine.backtrack_budget
        ctx = self.engine.ctx
        windows = self.engine.windows
        pred = windows.pred
        succ = windows.succ
        ps = PartialSchedule(ctx, ii)
        placed = ps.slots
        n_nodes = len(ctx.node_names)
        force_floor: dict[str, int] = {n: -(10 ** 9) for n in ctx.node_names}
        position = ctx.position

        while len(placed) < n_nodes:
            if budget <= 0:
                return None
            budget -= 1
            est, lst = self._bounds(ii, placed)
            unplaced = [n for n in ctx.node_names if n not in placed]
            # least dynamic slack first; ties by program order
            v = min(unplaced, key=lambda n: (lst[n] - est[n], position[n]))
            lo, hi = est[v], lst[v]
            if hi < lo:
                hi = lo + ii - 1  # inconsistent bounds: fall back to a window
            # bidirectional placement: ops anchored from above go early,
            # ops anchored from below go late
            preds_v = pred[v]
            anchored_up = any(src in placed for src, _d, _k in preds_v)
            anchored_down = any(dst in placed for dst, _d, _k in succ[v])
            candidates = range(lo, min(hi, lo + ii - 1) + 1)
            if anchored_down and not anchored_up:
                candidates = reversed(list(candidates))
            slot = None
            if not windows.self_blocked(v, ii):
                for cycle in candidates:
                    if cycle <= force_floor[v]:
                        continue
                    deps_ok = True
                    for src, delay, dist in preds_v:
                        s = placed.get(src)
                        if s is not None and cycle < s + delay - ii * dist:
                            deps_ok = False
                            break
                    if deps_ok and ps.fits(v, cycle):
                        slot = cycle
                        break
            if slot is None:
                slot = max(lo, force_floor[v] + 1)
                PlacementEngine._evict_conflicts(ps, v, slot)
                force_floor[v] = slot
            if v in placed:  # pragma: no cover - defensive
                ps.remove(v)
            ps.place(v, slot)
            # eject dependence-violating already-placed neighbours
            for dst, delay, dist in succ[v]:
                s = placed.get(dst)
                if s is not None and s < slot + delay - ii * dist:
                    ps.remove(dst)
            for src, delay, dist in preds_v:
                s = placed.get(src)
                if s is not None and slot < s + delay - ii * dist:
                    ps.remove(src)
        return placed


def schedule_huff(ddg: DDG, resources: ResourceModel) -> Schedule:
    """Convenience wrapper: Huff-schedule ``ddg``."""
    return HuffModuloScheduler(ddg, resources).schedule()
