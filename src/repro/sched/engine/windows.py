"""The dependence-window table.

The SMS scheduling window (Section 4.1 of the paper) of the node being
placed is bounded by its placed neighbours: ``Estart`` is the max of
``slot(u) + delay(u,v) - II*d(u,v)`` over placed predecessors, ``Lstart``
the min of ``slot(w) - delay(v,w) + II*d(v,w)`` over placed successors.
A :class:`WindowTable` folds each node's incident edges to ``(neighbour,
delay, distance)`` triples once per DDG, so every II and every candidate
of a search shares one table and the window is integer arithmetic over
flat tuples.

The produced windows are identical to the edge-walking reference
``compute_window`` in ``tests/sched/oracle.py`` (the engine's test suite
asserts exact parity on randomized partial schedules).
"""

from __future__ import annotations

from typing import Mapping

from .context import EngineContext

__all__ = ["WindowTable"]


class WindowTable:
    """Per-DDG folded dependence edges.

    ``pred[v]`` holds ``(src, delay, distance)`` per incoming edge —
    ``Estart`` is the max of ``slot(src) + delay - II*distance`` over
    placed sources.  ``succ[v]`` holds ``(dst, delay, distance)`` per
    outgoing edge — ``Lstart`` is the min of ``slot(dst) - delay +
    II*distance`` over placed sinks.  Self edges are dropped there: the
    node being windowed is never already placed, so they can't
    contribute a bound.  ``loops[v]`` keeps them as ``(delay,
    distance)`` for IMS's legality fact :meth:`self_blocked`.
    """

    __slots__ = ("pred", "succ", "loops", "asap")

    def __init__(self, ctx: EngineContext) -> None:
        ddg = ctx.ddg
        self.asap = ctx.depth
        self.pred: dict[str, tuple[tuple[str, int, int], ...]] = {}
        self.succ: dict[str, tuple[tuple[str, int, int], ...]] = {}
        self.loops: dict[str, tuple[tuple[int, int], ...]] = {}
        for v in ctx.node_names:
            self.pred[v] = tuple((e.src, e.delay, e.distance)
                                 for e in ddg.preds(v) if e.src != v)
            self.succ[v] = tuple((e.dst, e.delay, e.distance)
                                 for e in ddg.succs(v) if e.dst != v)
            self.loops[v] = tuple((e.delay, e.distance)
                                  for e in ddg.succs(v) if e.dst == v)

    def window(self, v: str, slots: Mapping[str, int], ii: int,
               bottom_up: bool, seed_high: bool) -> tuple[int, int, bool]:
        """``(start, end, scan_down)`` of ``v`` against ``slots`` at
        ``ii``.

        Mirrors the reference ``compute_window``: both
        neighbours -> bounded window scanned by ordering direction;
        predecessors only -> ``[Estart, Estart+II-1]`` upward; successors
        only -> ``[Lstart-II+1, Lstart]`` downward; neither -> the ASAP
        window, scanned down when the seed anchors high.
        """
        estart = None
        for src, delay, dist in self.pred[v]:
            s = slots.get(src)
            if s is not None:
                bound = s + delay - ii * dist
                if estart is None or bound > estart:
                    estart = bound
        lstart = None
        for dst, delay, dist in self.succ[v]:
            s = slots.get(dst)
            if s is not None:
                bound = s - delay + ii * dist
                if lstart is None or bound < lstart:
                    lstart = bound
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

    def estart(self, v: str, slots: Mapping[str, int], ii: int,
               floor: int = 0) -> int:
        """Earliest dependence-legal slot of ``v`` at ``ii`` (IMS's
        ``Estart`` with a monotonic ``mintime`` floor)."""
        e0 = floor
        for src, delay, dist in self.pred[v]:
            s = slots.get(src)
            if s is not None:
                bound = s + delay - ii * dist
                if bound > e0:
                    e0 = bound
        return e0

    def self_blocked(self, v: str, ii: int) -> bool:
        """Whether a self edge of ``v`` is violated at every slot at
        ``ii`` (``delay - II*distance > 0``)."""
        return any(delay > ii * dist for delay, dist in self.loops[v])
