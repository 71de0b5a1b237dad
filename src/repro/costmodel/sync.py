"""Definitions 2 and 3: synchronisation delay and preserved dependences.

**Definition 2 (sync delay).**  For an inter-iteration register dependence
``x -> y`` with kernel distance 1::

    sync(x, y) = issue_slot(x)%II - issue_slot(y)%II + lat(x) + C_reg_com

This is the minimum skew between consecutive threads that lets thread
``i+1``'s ``y`` receive the value produced by thread ``i``'s ``x`` over the
operand network.

**Generalisation to kernel distance k > 1.**  The post-pass turns a
distance-``k`` dependence into ``k`` neighbouring hops through register
copies, so the *per-thread* skew it demands is::

    sync_k(x, y) = (row(x) - row(y) + lat(x)) / k + C_reg_com

(each hop pays the full communication latency, while the issue-cycle
difference is amortised over ``k`` threads).  For ``k = 1`` this reduces to
Definition 2 exactly.

**Definition 3 (preserved memory dependence), ancestor-refined.**  An
inter-iteration memory dependence ``x -> y`` cannot misspeculate once the
consuming thread is skewed by at least::

    required_skew(x, y) = (row(x) + lat(x) - row(y)) / d_ker(x, y)

because by the time ``y`` executes in the consuming thread, ``x`` has
already completed in the producing thread.  With ``required_skew <= 0``
that holds at zero skew, so the dependence is preserved unconditionally.
Otherwise a synchronised register dependence ``u -> v`` preserves it
exactly when

* ``row(u) < row(x)``: the synchronisation happens before ``x``;
* ``sync(u, v) >= required_skew(x, y)``: it skews the threads enough;
* ``v`` is an intra-iteration ancestor of ``y`` (:func:`intra_ancestors`).
  Our cores issue out of order, so a synchronisation wait delays only
  the RECV's dependents: a ``y`` that does not depend on ``v`` issues
  regardless of the wait, and the dependence can still be violated.

The paper's formula is garbled in the available text.  The first two
conditions reconstruct the visible ``sync(u,v) >= (...)/d_ker(x,y)``
fragment and the motivating example, where SMS's 11-cycle sync delay
"accidentally preserves" ``n5 -> n0/n2/n3``; the third is our
out-of-order refinement (DESIGN.md §6.2).  :func:`preserved` is the one
statement of the rule: TMS's C2 (:class:`repro.sched.engine.TMSPolicy`)
and the kernel ``P_M`` (:func:`non_preserved_memory_deps`) both call it.
"""

from __future__ import annotations

from typing import Collection, Iterable, Protocol

from ..errors import DDGError
from ..graph.ddg import DDG
from ..graph.dependence import Dependence, DepType

__all__ = [
    "ScheduleView",
    "sync_delay",
    "required_skew",
    "intra_ancestors",
    "preserved",
    "non_preserved_memory_deps",
]


class ScheduleView(Protocol):
    """Anything that can answer row/stage queries — a complete
    :class:`~repro.sched.schedule.Schedule` or a scheduler's partial view."""

    ii: int
    ddg: DDG

    def row(self, name: str) -> int: ...
    def stage(self, name: str) -> int: ...
    def d_ker(self, edge: Dependence) -> int: ...


def sync_delay(view: ScheduleView, edge: Dependence, c_reg_com: int) -> float:
    """Per-thread skew demanded by synchronising register dependence
    ``edge`` (Definition 2 / its multi-hop generalisation)."""
    k = view.d_ker(edge)
    if k < 1:
        raise DDGError(
            f"sync delay is defined for inter-iteration dependences; "
            f"{edge.src}->{edge.dst} has d_ker={k}")
    lat = view.ddg.latency(edge.src)
    return (view.row(edge.src) - view.row(edge.dst) + lat) / k + c_reg_com


def required_skew(view: ScheduleView, edge: Dependence) -> float:
    """Per-thread skew above which memory dependence ``edge`` cannot be
    violated (Definition 3's threshold)."""
    k = view.d_ker(edge)
    if k < 1:
        raise DDGError(
            f"required skew is defined for inter-iteration dependences; "
            f"{edge.src}->{edge.dst} has d_ker={k}")
    lat = view.ddg.latency(edge.src)
    return (view.row(edge.src) + lat - view.row(edge.dst)) / k


def intra_ancestors(ddg: DDG) -> dict[str, frozenset[str]]:
    """Per node ``y``, its intra-iteration ancestors: ``y`` itself and
    every node that reaches it through distance-0 flow edges."""
    ancestors: dict[str, frozenset[str]] = {}
    for node in sorted(ddg.nodes, key=lambda n: n.position):
        anc: set[str] = {node.name}
        for e in ddg.preds(node.name):
            if e.distance == 0 and e.dtype is DepType.FLOW \
                    and e.src in ancestors:
                anc |= ancestors[e.src]
        ancestors[node.name] = frozenset(anc)
    return ancestors


def preserved(row_x: int, req: float, anc_y: Collection[str],
              synced: Iterable[tuple[int, float, str]]) -> bool:
    """Definition 3: is the memory dependence ``x -> y`` preserved by a
    synchronised register dependence ``u -> v`` of ``synced``?

    ``x -> y`` is given as ``row(x)``, its required skew and ``y``'s
    :func:`intra_ancestors`; each ``u -> v`` as ``(row(u), sync(u, v),
    v)``.
    """
    if req <= 0:
        return True
    for row_u, sync, v in synced:
        if row_u < row_x and sync >= req and v in anc_y:
            return True
    return False


def non_preserved_memory_deps(view: ScheduleView,
                              mem_deps: Iterable[Dependence],
                              reg_deps: Iterable[Dependence],
                              c_reg_com: int) -> list[Dependence]:
    """The subset of ``mem_deps`` not :func:`preserved` by the
    synchronised ``reg_deps`` — the dependences that can actually
    misspeculate (the set ``M`` feeding Equation 3)."""
    ancestors = intra_ancestors(view.ddg)
    synced = [(view.row(e.src), sync_delay(view, e, c_reg_com), e.dst)
              for e in reg_deps]
    return [e for e in mem_deps
            if not preserved(view.row(e.src), required_skew(view, e),
                             ancestors[e.dst], synced)]
