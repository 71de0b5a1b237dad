"""Memoized dependence-window service.

The SMS scheduling window (Section 4.1 of the paper) of the node being
placed is bounded by its placed neighbours: ``Estart`` is the max of
``slot(u) + delay(u,v) - II*d(u,v)`` over placed predecessors, ``Lstart``
the min of ``slot(w) - delay(v,w) + II*d(v,w)`` over placed successors.
Re-walking every incident edge for that arithmetic on every placement of
every candidate is wasted work: the deltas depend only on ``(DDG, II)``,
and TMS re-attempts the same II for many ``C_delay`` thresholds and two
seed passes.  A :class:`WindowTable` folds each edge to a
``(neighbour, delta)`` pair once per ``(DDG, II)``; the
:class:`WindowService` memoizes tables across every candidate of a
search.

The produced windows are identical to the edge-walking reference
``compute_window`` in ``tests/sched/oracle.py`` (the engine's test suite
asserts exact parity on randomized partial schedules).
"""

from __future__ import annotations

from typing import Mapping

from ...obs import metrics
from .context import EngineContext

__all__ = ["WindowService", "WindowTable"]


class WindowTable:
    """Per-(DDG, II) folded dependence deltas.

    ``pred[v]`` holds ``(src, delay - II*distance)`` per incoming edge —
    ``Estart`` is the max of ``slot(src) + delta`` over placed sources.
    ``succ[v]`` holds ``(dst, II*distance - delay)`` per outgoing edge —
    ``Lstart`` is the min of ``slot(dst) + delta`` over placed sinks.
    Self edges are dropped: the node being windowed is never already
    placed, so they can't contribute a bound.  ``self_blocked[v]`` is the
    IMS legality fact ``delay - II*distance > 0`` for any self edge — a
    per-(node, II) constant.
    """

    __slots__ = ("ii", "pred", "succ", "asap", "self_blocked")

    def __init__(self, ctx: EngineContext, ii: int) -> None:
        ddg = ctx.ddg
        self.ii = ii
        self.asap = ctx.depth
        self.pred: dict[str, tuple[tuple[str, int], ...]] = {}
        self.succ: dict[str, tuple[tuple[str, int], ...]] = {}
        self.self_blocked: dict[str, bool] = {}
        for v in ctx.node_names:
            self.pred[v] = tuple(
                (e.src, e.delay - ii * e.distance)
                for e in ddg.preds(v) if e.src != v)
            self.succ[v] = tuple(
                (e.dst, ii * e.distance - e.delay)
                for e in ddg.succs(v) if e.dst != v)
            self.self_blocked[v] = any(
                e.delay - ii * e.distance > 0
                for e in ddg.succs(v) if e.dst == v)

    def window(self, v: str, slots: Mapping[str, int], bottom_up: bool,
               seed_high: bool) -> tuple[int, int, bool]:
        """``(start, end, scan_down)`` of ``v`` against ``slots``.

        Mirrors the reference ``compute_window``: both
        neighbours -> bounded window scanned by ordering direction;
        predecessors only -> ``[Estart, Estart+II-1]`` upward; successors
        only -> ``[Lstart-II+1, Lstart]`` downward; neither -> the ASAP
        window, scanned down when the seed anchors high.
        """
        estart = None
        for src, delta in self.pred[v]:
            s = slots.get(src)
            if s is not None:
                bound = s + delta
                if estart is None or bound > estart:
                    estart = bound
        lstart = None
        for dst, delta in self.succ[v]:
            s = slots.get(dst)
            if s is not None:
                bound = s + delta
                if lstart is None or bound < lstart:
                    lstart = bound
        ii = self.ii
        if estart is not None:
            if lstart is not None:
                if bottom_up:
                    return (max(estart, lstart - ii + 1), lstart, True)
                return (estart, min(lstart, estart + ii - 1), False)
            return (estart, estart + ii - 1, False)
        if lstart is not None:
            return (lstart - ii + 1, lstart, True)
        asap = self.asap[v]
        return (asap, asap + ii - 1, seed_high)

    def estart(self, v: str, slots: Mapping[str, int], floor: int = 0) -> int:
        """Earliest dependence-legal slot of ``v`` (IMS's ``Estart`` with
        a monotonic ``mintime`` floor)."""
        e0 = floor
        for src, delta in self.pred[v]:
            s = slots.get(src)
            if s is not None:
                bound = s + delta
                if bound > e0:
                    e0 = bound
        return e0


class WindowService:
    """Lazily built, memoized :class:`WindowTable` per II."""

    def __init__(self, ctx: EngineContext) -> None:
        self._ctx = ctx
        self._tables: dict[int, WindowTable] = {}

    def table(self, ii: int) -> WindowTable:
        table = self._tables.get(ii)
        if table is None:
            table = WindowTable(self._ctx, ii)
            self._tables[ii] = table
            metrics.counter(
                "sched.engine.window_tables",
                "per-(DDG, II) dependence-window tables built").inc()
        else:
            metrics.counter(
                "sched.engine.window_reuses",
                "window-table lookups served from the per-II memo").inc()
        return table
