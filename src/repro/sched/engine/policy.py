"""The SlotPolicy protocol: pluggable per-node slot selection.

A placement attempt (:meth:`PlacementEngine.try_place`) walks the swing
node order and, per node, asks the policy for a slot in the node's
dependence window.  What makes a scheduler SMS or TMS is *policy*: which
conflict-free slots are acceptable, how competing slots are ranked, and
what incremental state a commitment updates.  A :class:`SlotPolicy`
packages exactly those hooks:

``select(v, start, end, scan_down, ps)``
    the slot ``v`` takes in its window ``[start, end]`` (window order is
    descending when ``scan_down``), or ``None``, plus the number of
    window rows evaluated.  The base policy is first fit in window order
    (SMS's lifetime-minimal strategy);
``on_place(v, cycle, slots)``
    commit incremental state after a placement (``slots`` already
    updated);
``replay(v, cycle, slots)``
    commit a placement the engine made without a ``select`` call (the
    replayed prefix of a resumed pass; ``slots`` already updated).

``on_place`` is an *attribute*: a policy that doesn't use it leaves it
``None`` and the engine skips the call entirely.

:class:`TMSPolicy` is the paper's Figure-3 slot acceptance as a policy
instance.  Its ``select`` scans a node's window once: C1 becomes an
integer row interval per stage (Definition 2's sync delay is linear in
the row once the stage is fixed), rows outside it are never evaluated,
and the score and C2 run only on the rows that survive and fit the
resources.  Committed memory dependences carry a cached *preserved* flag
(Definition 3, :func:`repro.costmodel.sync.preserved`; monotone —
synchronised dependences are only ever added within an attempt), so C2
only checks committed non-preserved dependences against the *new*
register dependences, and the new memory dependences against the
committed register set.  The survivors' ``(1 - p_e)`` factors
multiply in commit order, then the tentative placement's, keeping the
float product bit-identical to a full rescan.

Each call also records a :class:`Trail` entry: its chosen cycle and
``μ``, the smallest ``C_delay`` threshold at which it or an earlier
call of the pass would answer differently
(:attr:`TMSPolicy.replay_floor` after the call).  C1 admits a row
exactly when its largest sync delay (``maxsync``) is at most
``C_delay``; the score, the resource probe, C2 and the windows never
read ``C_delay``.  So raising the threshold from ``C`` to ``C'`` changes
a call's answer only through a row that C1 rejected at ``C``, that fits
and passes C2, and that has ``maxsync <= C'``: it gives a node without a
slot one, or beats the chosen row on ``(score, scan position)``.  A
call's divergence threshold is the smallest ``maxsync`` of such a row
(``inf`` if there is none), and ``μ`` is the running minimum of those
thresholds over the pass.  A pass at ``C' >= C`` therefore repeats every
call before the first with ``μ <= C'``: each meets the same partial
schedule and commits the same dependences.  Such a repeated call's
divergence set at ``C'`` is its set at ``C`` restricted to ``maxsync >
C'``, which is all of it, so its ``μ`` carries over too.  The TMS search
uses that to resume each candidate from the prefix it shares with the
last one placed at its II.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from operator import neg
from typing import Mapping

from ...config import ArchConfig, SchedulerConfig
from ...costmodel.sync import intra_ancestors, preserved
from ...graph.ddg import DDG
from .context import EngineContext

__all__ = ["SlotPolicy", "TMSContext", "TMSPolicy", "Trail"]


class SlotPolicy:
    """Base policy: first fit in window order, no state (plain SMS
    placement)."""

    #: hook; ``None`` means "not used" and is skipped by the engine.
    on_place = None

    def begin_attempt(self, partial) -> None:
        """Reset per-attempt incremental state (called by the engine
        before every placement attempt)."""

    def select(self, v: str, start: int, end: int, scan_down: bool,
               ps) -> tuple[int | None, int]:
        """``(cycle, rows)``: the first slot of ``[start, end]`` in window
        order where ``v`` fits the resources (``None`` if none does), and
        the number of rows evaluated."""
        fits = ps.fits
        cycles = range(end, start - 1, -1) if scan_down \
            else range(start, end + 1)
        for rows, cycle in enumerate(cycles, 1):
            if fits(v, cycle):
                return cycle, rows
        return None, len(cycles)

    def replay(self, v: str, cycle: int, slots: Mapping[str, int]) -> None:
        """Commit ``v`` at ``cycle``, placed without a :meth:`select`
        call (``slots`` already updated).  First fit keeps no state."""


class Trail:
    """One TMS placement pass at one II, as its ``select`` calls made
    it at threshold ``c_delay``: per call, in node order, the chosen
    cycle (``None`` for the failing call that ends a failed pass) and
    ``μ``, the running minimum of the calls' divergence thresholds (see
    the module docstring).  ``μ`` never rises along the pass."""

    __slots__ = ("c_delay", "cycles", "floors")

    def __init__(self, c_delay: int, cycles: list, floors: list) -> None:
        self.c_delay = c_delay
        self.cycles = cycles
        self.floors = floors

    def shared(self, c_delay: int) -> int:
        """How many leading calls a pass at ``c_delay`` repeats: up to
        the first with ``μ <= c_delay``, and none below the trail's own
        threshold."""
        if c_delay < self.c_delay:
            return 0
        return bisect_left(self.floors, -c_delay, key=neg)

    def repeats(self, c_delay: int) -> bool:
        """Whether a pass at ``c_delay`` repeats every call, so fails as
        this one did (a stored trail is a failed pass's)."""
        return self.shared(c_delay) == len(self.cycles)


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

        # Definition 3's intra-iteration ancestors, for C2
        self.ancestors = intra_ancestors(ddg)
        self.depth = ctx.depth
        self.height = ctx.height


def _placed(edges, slots: Mapping[str, int], ii: int, v: str) -> list:
    """``edges`` (a :class:`TMSContext` tuple) whose neighbour is placed,
    as ``(neighbour, stage, row, distance, latency[, probability])``; a
    self edge's stage and row are ``None`` (they are ``v``'s own)."""
    out = []
    for edge in edges:
        u = edge[0]
        if u == v:
            out.append((u, None, None) + edge[1:])
            continue
        s = slots.get(u)
        if s is not None:
            out.append((u, s // ii, s % ii) + edge[1:])
    return out


def _crossing(edges: list, stage: int, inbound: bool) -> list:
    """The :func:`_placed` ``edges`` that cross iterations when ``v``
    issues in ``stage``, as ``(row, k, latency[, probability],
    neighbour)`` with ``k >= 1`` the kernel distance; ``row`` is ``None``
    for a self edge (``k`` is then its distance)."""
    out = []
    for u, st, row, dist, *rest in edges:
        if st is None:
            k = dist
        elif inbound:
            k = dist + stage - st
        else:
            k = dist + st - stage
        if k >= 1:
            out.append((row, k, *rest, u))
    return out


def _stage_deps(edges: tuple, stage: int, synced_mem: bool) -> tuple:
    """``(crossing, prods, cons)`` of ``v`` issuing in ``stage``:
    ``crossing`` is the :func:`_crossing` form of the :func:`_placed`
    ``(reg_in, reg_out, mem_in, mem_out)`` edges, and the synchronised
    dependences among them give ``sync(row) = (a - row)/k + C_reg_com``
    per ``(a, k)`` producer and ``(row - b)/k + C_reg_com`` per ``(b,
    k)`` consumer (a self edge is neither: its sync is row-free)."""
    reg_in, reg_out, mem_in, mem_out = edges
    r_in = _crossing(reg_in, stage, True)
    r_out = _crossing(reg_out, stage, False)
    m_in = _crossing(mem_in, stage, True)
    m_out = _crossing(mem_out, stage, False)
    prods = [(row_s + lat, k)
             for row_s, k, lat, *_ in r_in if row_s is not None]
    cons = [(row_d - lat, k) for row_d, k, lat, *_ in r_out]
    if synced_mem:
        prods += [(row_s + lat, k)
                  for row_s, k, lat, *_ in m_in if row_s is not None]
        cons += [(row_d - lat, k) for row_d, k, lat, *_ in m_out]
    return (r_in, r_out, m_in, m_out), prods, cons


def _producer_sync(prods: list, row: int, ccom: int, floor: float) -> float:
    """The largest of ``floor`` and the producers' sync delays at
    ``row`` (see :meth:`TMSPolicy.select`)."""
    for a, k in prods:
        sync = (a - row) / k + ccom
        if sync > floor:
            floor = sync
    return floor


def _consumer_sync(cons: list, row: int, ccom: int, floor: float) -> float:
    """The largest of ``floor`` and the consumers' sync delays at
    ``row``."""
    for b, k in cons:
        sync = (row - b) / k + ccom
        if sync > floor:
            floor = sync
    return floor


def _c1_interval(prods: list, cons: list, lo: int, hi: int,
                 slack: int) -> tuple[int, int]:
    """The rows of ``[lo, hi]`` where every synchronised dependence has
    ``span <= k * slack``: C1's row interval at ``C_delay = slack +
    C_reg_com`` (see :meth:`TMSPolicy.select`)."""
    for a, k in prods:
        if a - k * slack > lo:
            lo = a - k * slack
    for b, k in cons:
        if b + k * slack < hi:
            hi = b + k * slack
    return lo, hi


def _headroom(need: int, shortfall: int) -> float:
    """The stage-headroom tiebreak term of a node needing ``need`` rows
    of room that its row leaves ``shortfall`` short of."""
    return min(0.45, 0.45 * shortfall / need) if shortfall > 0 else 0.0


class TMSPolicy(SlotPolicy):
    """Figure 3's C1/C2 slot acceptance for one ``(II, C_delay, P_max)``
    candidate.

    The ``speculation=False`` mode (Section 5.2's ablation) treats memory
    flow dependences as synchronised: they join C1 and never
    misspeculate.
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
        # incremental Definition-4 sets over the scheduled prefix:
        #   committed register deps as (row_of_src, sync_delay, consumer)
        #   committed memory deps as [row_of_src, required_skew,
        #                             probability, consumer, preserved]
        self._sreg: list[tuple[int, float, str]] = []
        self._smem: list[list] = []
        # the new dependences of the slot select() last returned, which
        # on_place commits.
        self._chosen: tuple[list, list] = ([], [])
        #: the current pass's select calls (see :meth:`resume`).
        self.trail = Trail(c_delay, [], [])
        #: ``μ`` of the pass's last call: the smallest threshold at which
        #: a select call of the pass would answer differently; ``inf``
        #: while every call answers the same at any threshold.
        self.replay_floor = math.inf

    def begin_attempt(self, partial) -> None:
        self._sreg.clear()
        self._smem.clear()

    def resume(self, trail: Trail | None, shared: int) -> list:
        """Start a pass that repeats the first ``shared`` calls of
        ``trail``, a pass of a candidate at this II and a threshold at
        most this one's (``shared`` is 0 without one): the pass's trail
        and floor start as that prefix's.  Returns the prefix's cycles,
        which the engine re-places without calling :meth:`select`."""
        prefix = trail.cycles[:shared] if shared else []
        floors = trail.floors[:shared] if shared else []
        self.trail = Trail(self._c_delay, list(prefix), floors)
        self.replay_floor = floors[-1] if floors else math.inf
        return prefix

    def replay(self, v: str, cycle: int, slots: Mapping[str, int]) -> None:
        """Commit ``v`` at ``cycle`` as if :meth:`select` had chosen it:
        re-derive the row's new Definition-4 dependences, then
        :meth:`on_place`."""
        ii = self._ii
        tms = self._tms
        edges = tuple(_placed(table[v], slots, ii, v) for table in
                      (tms.reg_in, tms.reg_out, tms.mem_in, tms.mem_out))
        crossing = _stage_deps(edges, cycle // ii, not self._speculation)[0]
        self._chosen = self._new_deps(v, cycle % ii, *crossing)
        self.on_place(v, cycle, slots)

    # -- the per-node window scan ---------------------------------------------

    def select(self, v: str, start: int, end: int, scan_down: bool,
               ps) -> tuple[int | None, int]:
        """:meth:`_scan`'s slot for ``v`` and rows evaluated, recorded in
        :attr:`trail` with the pass's floor after the call."""
        cycle, rows = self._scan(v, start, end, scan_down, ps)
        trail = self.trail
        trail.cycles.append(cycle)
        trail.floors.append(self.replay_floor)
        return cycle, rows

    def _scan(self, v: str, start: int, end: int, scan_down: bool,
              ps) -> tuple[int | None, int]:
        """The minimum-score slot of ``v`` satisfying C1 and C2, first in
        window order, stopping at a score ``<= 0``; ``None`` if no slot
        qualifies.

        New inter-iteration dependences: for edge ``e`` the kernel
        distance is ``k = d(e) + stage(dst) - stage(src)``; ``k < 1``
        means the dependence stays intra-iteration.  ``sync = span/k +
        C_reg_com`` with ``span = row(src) - row(dst) + latency(src)``
        (Definition 2); ``req = span/k`` is C2's required skew.  With the
        stage fixed, C1's ``sync <= C_delay`` is ``row >= row_s + lat_s -
        k*(C_delay - C_reg_com)`` per placed producer and ``row <= row_d
        - lat_v + k*(C_delay - C_reg_com)`` per placed consumer — exact,
        since latencies, ``C_reg_com`` and ``C_delay`` are ints.

        A slot's score is the largest sync delay it would introduce (0 if
        none) — TMS picks the slot with the shortest synchronisation
        delay among the acceptable ones (Section 4.1) — plus a sub-unit
        tiebreak preferring kernel rows that leave same-stage room for
        the node's still-unplaced same-iteration neighbours: *below* for
        its feeder chain (depth), *above* for its consumer chain
        (height).  Placing a node flush against a stage boundary forces
        that chain across the boundary and turns intra-thread
        dependences into synchronised ones.

        Within a stage, a producer's sync delay and the depth tiebreak
        only fall as the row rises; a consumer's and the height tiebreak
        only rise.  So the terms growing along the scan at the current
        row, plus the shrinking ones at the stage's last row, bound the
        score of every row still ahead (float addition is monotone), and
        the scan leaves the stage once that bound reaches the best score.

        Each call also lowers :attr:`replay_floor` to the threshold at
        which it would answer differently (:meth:`_diverge`).
        """
        if start > end:
            return None, 0
        ii = self._ii
        ccom = self._ccom
        slack = self._c_delay - ccom  # C1 is span <= k * slack
        tms = self._tms
        slots = ps.slots
        fits = ps.fits
        synced_mem = not self._speculation
        reg_in = _placed(tms.reg_in[v], slots, ii, v)
        reg_out = _placed(tms.reg_out[v], slots, ii, v)
        mem_in = _placed(tms.mem_in[v], slots, ii, v)
        mem_out = _placed(tms.mem_out[v], slots, ii, v)
        edges = (reg_in, reg_out, mem_in, mem_out)

        # A self edge's sync delay is the same in every row: over the
        # threshold it rejects the whole window, else it floors the score.
        self_sync = 0.0
        self_rejects = False
        for _u, stage, _row, dist, lat, *_p in \
                (reg_in + mem_in if synced_mem else reg_in):
            if stage is None and dist >= 1:
                sync = lat / dist + ccom
                if lat > dist * slack:
                    self_rejects = True
                if sync > self_sync:
                    self_sync = sync

        # the tiebreak's depth/height, 0 once the chain is placed
        below = tms.depth[v] if any(
            p not in slots for p in tms.pred0[v]) else 0
        above = tms.height[v] if any(
            s not in slots for s in tms.succ0[v]) else 0
        if self_rejects:
            self._diverge(v, start, end, scan_down, ps, edges, self_sync,
                          below, above, None, 0.0)
            return None, 0

        stages = range(start // ii, end // ii + 1)
        best_cycle: int | None = None
        best_score = 0.0
        best_at = None
        rows = 0
        for stage in (reversed(stages) if scan_down else stages):
            base = stage * ii
            w_lo = max(start - base, 0)
            w_hi = min(end - base, ii - 1)
            crossing, prods, cons = _stage_deps(edges, stage, synced_mem)
            r_in, r_out, m_in, m_out = crossing
            # C1 as the row interval [lo, hi] of this stage
            lo, hi = _c1_interval(prods, cons, w_lo, w_hi, slack)
            if lo > hi:
                continue
            check_c2 = not synced_mem and (m_in or m_out)
            last = lo if scan_down else hi
            if scan_down:
                rest_sync = _consumer_sync(cons, last, ccom, self_sync)
                rest_above = _headroom(above, above - (ii - 1 - last))
            else:
                rest_sync = _producer_sync(prods, last, ccom, self_sync)
                rest_below = _headroom(below, below - last)
            for row in (range(hi, lo - 1, -1) if scan_down
                        else range(lo, hi + 1)):
                rows += 1
                cycle = base + row
                if not fits(v, cycle):
                    continue
                p_sync = _producer_sync(prods, row, ccom, self_sync)
                c_sync = _consumer_sync(cons, row, ccom, self_sync)
                tb_below = _headroom(below, below - row)
                tb_above = _headroom(above, above - (ii - 1 - row))
                score = max(p_sync, c_sync) + tb_below + tb_above
                if best_cycle is None or score < best_score:
                    if not check_c2 or self._c2_holds(*self._new_deps(
                            v, row, r_in, r_out, m_in, m_out)):
                        best_cycle, best_score = cycle, score
                        best_at = (row, r_in, r_out, m_in, m_out)
                        if score <= 0.0:
                            break  # no new sync at all
                if best_cycle is None:
                    continue
                if scan_down:
                    bound = max(p_sync, rest_sync) + tb_below + rest_above
                else:
                    bound = max(rest_sync, c_sync) + rest_below + tb_above
                if bound >= best_score:
                    break
            if best_cycle is not None and best_score <= 0.0:
                break
        if best_cycle is None:
            self._diverge(v, start, end, scan_down, ps, edges, self_sync,
                          below, above, None, 0.0)
            return None, rows
        self._chosen = self._new_deps(v, *best_at)
        # a row C1 rejects has maxsync > C_delay, so its score can beat
        # the chosen one only when the tiebreaks lift that over C_delay
        if best_score > self._c_delay:
            self._diverge(v, start, end, scan_down, ps, edges, self_sync,
                          below, above, best_cycle, best_score)
        return best_cycle, rows

    def _diverge(self, v: str, start: int, end: int, scan_down: bool, ps,
                 edges: tuple, self_sync: float, below: int, above: int,
                 best_cycle: int | None, best_score: float) -> None:
        """Lower :attr:`replay_floor` to this call's divergence threshold:
        the smallest ``maxsync`` of a row C1 rejected that fits, passes
        C2 and, when the call chose ``best_cycle``, beats it on ``(score,
        scan position)``.

        With no slot chosen every rejected row counts.  With one chosen,
        its score is at most its sync plus 0.9 (each tiebreak is at most
        0.45), so only rejected rows with ``maxsync`` in ``(C_delay,
        best_score]`` can beat it; they all lie in the C1 interval at
        ``C_delay + 1``.
        """
        ii = self._ii
        ccom = self._ccom
        c_delay = self._c_delay
        slack = c_delay - ccom
        synced_mem = not self._speculation
        fits = ps.fits
        floor = self.replay_floor
        for stage in range(start // ii, end // ii + 1):
            base = stage * ii
            w_lo = max(start - base, 0)
            w_hi = min(end - base, ii - 1)
            crossing, prods, cons = _stage_deps(edges, stage, synced_mem)
            _r_in, _r_out, m_in, m_out = crossing
            if best_cycle is None:
                lo, hi = w_lo, w_hi
            else:
                lo, hi = _c1_interval(prods, cons, w_lo, w_hi, slack + 1)
            check_c2 = not synced_mem and (m_in or m_out)
            for row in range(lo, hi + 1):
                sync = _consumer_sync(cons, row, ccom, _producer_sync(
                    prods, row, ccom, self_sync))
                if sync <= c_delay or sync >= floor:
                    continue  # admitted at C_delay, or no lower floor
                cycle = base + row
                if best_cycle is not None:
                    score = sync + _headroom(below, below - row) \
                        + _headroom(above, above - (ii - 1 - row))
                    if score > best_score or score == best_score and (
                            cycle < best_cycle if scan_down
                            else cycle > best_cycle):
                        continue
                if fits(v, cycle) and (not check_c2 or self._c2_holds(
                        *self._new_deps(v, row, *crossing))):
                    floor = sync
        self.replay_floor = floor

    def _new_deps(self, v: str, row: int, r_in, r_out, m_in, m_out):
        """The inter-iteration dependences placing ``v`` in ``row`` would
        create, from the stage's :func:`_crossing` edges, in DDG edge
        order: ``(reg, mem)`` where reg entries are ``(row_src,
        sync_delay, consumer)`` and mem entries ``(row_src, sync_delay,
        required_skew, probability, consumer)``."""
        ccom = self._ccom
        new_reg = []
        for row_s, k, lat, _u in r_in:
            if row_s is None:
                row_s = row
            new_reg.append((row_s, (row_s - row + lat) / k + ccom, v))
        for row_d, k, lat, u in r_out:
            new_reg.append((row, (row - row_d + lat) / k + ccom, u))
        new_mem = []
        for row_s, k, lat, p, _u in m_in:
            if row_s is None:
                row_s = row
            req = (row_s - row + lat) / k
            new_mem.append((row_s, req + ccom, req, p, v))
        for row_d, k, lat, p, u in m_out:
            req = (row - row_d + lat) / k
            new_mem.append((row, req + ccom, req, p, u))
        return new_reg, new_mem

    def _c2_holds(self, new_reg, new_mem) -> bool:
        """C2: the misspeculation frequency of non-preserved memory deps
        stays within ``P_max``.  The (1 - p) factors multiply in commit
        order then tentative order — the same sequence a full rescan
        produces."""
        ancestors = self._tms.ancestors
        sreg = self._sreg
        prod = 1.0
        for row_x, req, prob, y, cached in self._smem:
            # a committed dep's flag caches preservation by the committed
            # register deps; only the new ones can preserve it now
            if not cached and not preserved(row_x, req, ancestors[y],
                                            new_reg):
                prod *= (1.0 - prob)
        for row_x, _sync, req, prob, y in new_mem:
            anc_y = ancestors[y]
            if not (preserved(row_x, req, anc_y, sreg)
                    or preserved(row_x, req, anc_y, new_reg)):
                prod *= (1.0 - prob)
        return 1.0 - prod <= self._p_max

    def on_place(self, v: str, cycle: int, slots: Mapping[str, int]) -> None:
        """Commit the new dependences of the slot :meth:`select` just
        returned."""
        new_reg, new_mem = self._chosen
        ancestors = self._tms.ancestors
        sreg = self._sreg
        smem = self._smem
        if new_reg:
            sreg.extend(new_reg)
            # the new synchronised deps may preserve previously committed
            # memory deps: refresh the cached flags (monotone within an
            # attempt — register deps are only ever added).
            for ent in smem:
                if not ent[4] and preserved(ent[0], ent[1],
                                            ancestors[ent[3]], new_reg):
                    ent[4] = True
        if self._speculation:
            for row_x, _sync, req, prob, y in new_mem:
                smem.append([row_x, req, prob, y,
                             preserved(row_x, req, ancestors[y], sreg)])
