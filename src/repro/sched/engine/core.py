"""The placement engine: one scheduling core for IMS, SMS and TMS.

:class:`PlacementEngine` owns the machinery every modulo scheduler in
this repo shares — the per-DDG :class:`EngineContext` and
:class:`WindowTable`, the incremental :class:`PartialSchedule` — and
exposes the two placement disciplines on top of it:

``try_place``
    the restart discipline (SMS/TMS): walk a precomputed node order,
    place each node at the best acceptable slot of its dependence
    window, fail the whole attempt if any node has none.  *Which* slot
    is best is the :class:`~repro.sched.engine.policy.SlotPolicy`'s
    call.  A resumed TMS pass hands it a prefix of cycles to re-place
    without asking; :meth:`PlacementEngine.replay_failure` traces a
    pass known to repeat a failed one without running it.

``run_backtracking``
    the IMS discipline (Rau): repeatedly pick the highest-priority
    unscheduled op; if its window has no conflict-free slot, force it in
    and eject whoever conflicts, under a per-II budget
    (:attr:`PlacementEngine.backtrack_budget`, which Huff's scheduler
    shares).

Both produce slot maps byte-identical to the seed implementations they
replace — the golden-equivalence suite pins this on every paper kernel.
The engine publishes ``sched.engine.*`` counters (attempts, slot
probes) alongside the pre-existing ``sched.*`` series, so ``--stats``
shows how much probing a search actually did.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ...graph.ddg import DDG
from ...machine.resources import ResourceModel
from ...obs import metrics, telemetry
from .context import EngineContext
from .partial import PartialSchedule
from .policy import SlotPolicy
from .windows import WindowTable

__all__ = ["PlacementEngine"]

_FIRST_FIT = SlotPolicy()

#: a backtracking attempt forces at most ``_BACKTRACK_PER_NODE`` placements
#: per node, plus ``_BACKTRACK_BASE``, before it gives up on its II
_BACKTRACK_PER_NODE = 3
_BACKTRACK_BASE = 32


class PlacementEngine:
    """Shared placement core over one DDG + resource model."""

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 metrics_map=None) -> None:
        self.ctx = EngineContext(ddg, resources, metrics_map)
        self.windows = WindowTable(self.ctx)
        #: placements one backtracking attempt may make (IMS and Huff)
        self.backtrack_budget = (_BACKTRACK_PER_NODE * len(ddg)
                                 + _BACKTRACK_BASE)

    # -- restart discipline (SMS / TMS) -------------------------------------

    def try_place(self, ii: int, order, directions: Mapping[str, str],
                  policy: SlotPolicy | None = None, *, alg: str,
                  seed_high: bool = False,
                  prefix: Sequence[int] = ()) -> dict[str, int] | None:
        """One placement attempt at ``ii`` over ``order``.

        Each node takes the slot ``policy.select`` picks in its
        dependence window (scan direction per its ordering
        ``directions``; unconstrained seeds anchor high when
        ``seed_high``): the first conflict-free slot for the base policy
        (SMS's lifetime-minimal strategy), the minimum-score slot
        satisfying C1/C2 for TMS — how TMS "finds the time slot ... that
        leads to the shortest synchronisation delay" (Section 4.1).

        The first ``len(prefix)`` nodes take the cycles of ``prefix``
        instead, with no window or ``select`` call (a resumed TMS pass):
        each is placed, traced and committed by ``policy.replay``.

        Returns the slot map, or ``None`` on failure.
        """
        spans = telemetry.current().spans
        if spans.enabled and spans.detail:
            # detail span: one per placement attempt — --trace only, so
            # ledger-scale runs don't accumulate one span per II candidate.
            with spans.span("sched.place", alg=alg, kernel=self.ctx.name,
                            ii=ii) as sp:
                out = self._try_place(ii, order, directions, policy, alg=alg,
                                      seed_high=seed_high, prefix=prefix)
                if sp is not None:
                    sp.attrs["ok"] = out is not None
                return out
        return self._try_place(ii, order, directions, policy, alg=alg,
                               seed_high=seed_high, prefix=prefix)

    def _try_place(self, ii: int, order, directions: Mapping[str, str],
                   policy: SlotPolicy | None = None, *, alg: str,
                   seed_high: bool = False,
                   prefix: Sequence[int] = ()) -> dict[str, int] | None:
        if policy is None:
            policy = _FIRST_FIT
        tracer = telemetry.current().tracer
        metrics.counter(
            "sched.engine.attempts",
            "placement attempts run by the unified engine").inc()
        window = self.windows.window
        ps = PartialSchedule(self.ctx, ii)
        partial = ps.slots
        policy.begin_attempt(ps)
        select = policy.select
        on_place = policy.on_place
        loop_name = self.ctx.name
        for v, cycle in zip(order, prefix):
            ps.place(v, cycle)
            if tracer.enabled:
                _emit_place(tracer, alg, loop_name, ii, v, cycle)
            policy.replay(v, cycle, partial)
        probes = 0
        for v in order[len(prefix):]:
            start, end, scan_down = window(
                v, partial, ii,
                directions.get(v, "top-down") == "bottom-up", seed_high)
            best_cycle, rows = select(v, start, end, scan_down, ps)
            probes += rows
            if best_cycle is None:
                if tracer.enabled:
                    _emit_place(tracer, alg, loop_name, ii, v, None)
                metrics.counter(
                    "sched.engine.slot_probes",
                    "window rows evaluated by slot policies").inc(probes)
                return None
            ps.place(v, best_cycle)
            if tracer.enabled:
                _emit_place(tracer, alg, loop_name, ii, v, best_cycle)
            if on_place is not None:
                on_place(v, best_cycle, partial)
        metrics.counter(
            "sched.placements",
            "nodes placed in completed scheduling attempts").inc(len(partial))
        metrics.counter(
            "sched.engine.slot_probes",
            "window rows evaluated by slot policies").inc(probes)
        return partial

    def replay_failure(self, ii: int, order, cycles: Sequence[int | None],
                       *, alg: str) -> None:
        """Trace a failed placement attempt known to repeat ``cycles``
        (one per node of ``order``, the last ``None``) without making
        it: its ``place`` and ``place_fail`` events only."""
        tracer = telemetry.current().tracer
        if tracer.enabled:
            for v, cycle in zip(order, cycles):
                _emit_place(tracer, alg, self.ctx.name, ii, v, cycle)

    # -- backtracking discipline (IMS) ---------------------------------------

    def run_backtracking(self, ii: int, *,
                         alg: str = "IMS") -> dict[str, int] | None:
        """One IMS attempt at ``ii`` under :attr:`backtrack_budget`.

        Highest priority first (greatest height, then program order);
        an op with no conflict-free window slot is forced into its
        earliest dependence-legal slot (raised monotonically by
        ``mintime`` to guarantee progress) and conflicting ops are
        ejected — resource conflicts via :func:`_evict_conflicts`,
        dependence violations by direct ejection of the offending
        neighbours.
        """
        spans = telemetry.current().spans
        if spans.enabled and spans.detail:
            with spans.span("sched.backtrack", alg=alg,
                            kernel=self.ctx.name, ii=ii) as sp:
                out = self._run_backtracking(ii, alg=alg)
                if sp is not None:
                    sp.attrs["ok"] = out is not None
                return out
        return self._run_backtracking(ii, alg=alg)

    def _run_backtracking(self, ii: int, *,
                          alg: str = "IMS") -> dict[str, int] | None:
        budget = self.backtrack_budget
        tracer = telemetry.current().tracer
        metrics.counter(
            "sched.engine.attempts",
            "placement attempts run by the unified engine").inc()
        ctx = self.ctx
        windows = self.windows
        pred = windows.pred
        succ = windows.succ
        priority = ctx.priority
        loop_name = ctx.name
        ps = PartialSchedule(ctx, ii)
        placed = ps.slots
        n_nodes = len(ctx.node_names)
        never_scheduled = set(ctx.node_names)
        # mintime: monotonically raised forced-start per node, guaranteeing
        # termination progress.
        mintime = {name: 0 for name in ctx.node_names}

        while never_scheduled or len(placed) < n_nodes:
            unsched = [n for n in ctx.node_names if n not in placed]
            if not unsched:
                break
            if budget <= 0:
                return None
            budget -= 1
            v = min(unsched, key=priority.__getitem__)
            lo = windows.estart(v, placed, ii, mintime[v])
            slot = None
            if not windows.self_blocked(v, ii):
                preds_v = pred[v]
                for cycle in range(lo, lo + ii):
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
                # force placement at the earliest dependence-legal slot,
                # ejecting whoever conflicts.
                slot = lo
                if v not in never_scheduled and mintime[v] >= slot:
                    slot = mintime[v] + 1
                self._evict_conflicts(ps, v, slot)
                mintime[v] = slot
            if v in placed:
                ps.remove(v)
            ps.place(v, slot)
            never_scheduled.discard(v)
            if tracer.enabled:
                _emit_place(tracer, alg, loop_name, ii, v, slot)
            # eject dependence-violating already-placed neighbours
            for dst, delay, dist in succ[v]:
                s = placed.get(dst)
                if s is not None and s < slot + delay - ii * dist:
                    ps.remove(dst)
                    if tracer.enabled:
                        tracer.emit("sched", "eject", alg=alg,
                                    loop=loop_name, ii=ii, node=dst, by=v)
            for src, delay, dist in pred[v]:
                s = placed.get(src)
                if s is not None and slot < s + delay - ii * dist:
                    ps.remove(src)
                    if tracer.enabled:
                        tracer.emit("sched", "eject", alg=alg,
                                    loop=loop_name, ii=ii, node=src, by=v)
        metrics.counter(
            "sched.placements",
            "nodes placed in completed scheduling attempts").inc(len(placed))
        return placed

    @staticmethod
    def _evict_conflicts(ps: PartialSchedule, v: str, slot: int) -> None:
        """Remove the minimum of already-placed ops blocking ``v`` at
        ``slot``: first same-FU ops overlapping its reservation rows, then
        (if the issue row is still full) arbitrary ops issuing in the same
        row."""
        placed = ps.slots
        fu_v = ps.fu_index(v)
        rows = set(ps.occupancy_rows(v, slot))
        for name in list(placed):
            if name == v or ps.fits(v, slot):
                continue
            if ps.fu_index(name) != fu_v:
                continue
            if rows & set(ps.occupancy_rows(name, placed[name])):
                ps.remove(name)
        ii = ps.ii
        for name in list(placed):
            if ps.fits(v, slot):
                break
            if name != v and placed[name] % ii == slot % ii:
                ps.remove(name)


def _emit_place(tracer, alg: str, loop: str, ii: int, v: str,
                cycle: int | None) -> None:
    """The ``place`` event of ``v`` at ``cycle``, or its ``place_fail``
    event when ``cycle`` is ``None``."""
    if cycle is None:
        tracer.emit("sched", "place_fail", alg=alg, loop=loop, ii=ii, node=v)
    else:
        tracer.emit("sched", "place", alg=alg, loop=loop, ii=ii, node=v,
                    cycle=cycle, row=cycle % ii, stage=cycle // ii)
