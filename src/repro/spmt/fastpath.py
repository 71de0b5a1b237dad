"""Relative-state fast path for the simulator: re-lock, prove, replay.

Thread ``j`` runs on core ``j % ncore`` and the event loop iterates

    start(j)  = max(start(j-1) + C_spn, core_free[j % ncore])
    timing(j) = resolve(start(j), arrivals from threads j - hops)
    commit(j) = max(finish(j), commit(j-1)) + C_ci

plus the violation check against producers ``j - k`` and, on a
violation, a squash and a restart.  So thread ``t`` reads only a bounded
window of its predecessors, and this module keys everything on it.

**The key.**  At boundary ``t`` (threads ``[0, t)`` committed) let
``r = start(t-1)``.  The key is

    start(k) - r and k's issue pattern   for k in [t - max_dist, t)
    commit(k) - r                        for k in [t - ncore, t)

where ``max_dist`` is the largest channel hop or speculated distance and
issue patterns are interned by value; the key is the value id of that
whole relative state, so every table below hashes one int.  One dict
lookup per keyed boundary then does one of three jobs:

1. **Proven cycle.**  The key is a phase of an accepted cycle: skip ahead
   from that phase.
2. **Recurrence.**  The key was seen at ``t0`` earlier in the current
   stretch of individually run threads, with ``t - t0 <= _MAX_PERIOD``:
   threads ``[t0, t)`` are a cycle of period ``P = t - t0`` and drift
   ``D = r(t) - r(t0)``.  The key equality is the proof.  Index every
   phase of it, then skip.
3. **Chained replay.**  A thread already committed from this key with
   the same realisation draws left a record, which also holds the key
   of the boundary after it (the key and the draws fix that too).  The
   detector follows record -> successor key through every consecutive
   memoised thread, up to a miss, ``n - ncore`` or a proven cycle's
   phase, and hands the caller the whole chain as one step, as it does
   a skip; a chain of one is a single replayed thread.

Proof obligations (all checked, never assumed):

* **State completeness.**  Thread ``t`` reads ``prev_start = r``,
  ``prev_commit = commit(t-1)``, ``core_free[t % ncore] =
  commit(t - ncore)``, the start and issue pattern of every arrival
  producer ``t - hops`` and violation producer ``t - k``, and its own
  realisation draws.  The key holds all of these relative to ``r``, so
  the key and the draws fix every attempt of thread ``t``, and the next
  key.
* **Shift invariance.**  The loop only adds and takes maxima, so
  translating every input by ``D`` translates every output by ``D``.
* **Integrality.**  Shift invariance holds bit for bit only in exact
  arithmetic, so every committed thread's start, commit and issue
  pattern must be integral floats below 2**52.  A thread that is not
  leaves the next ``max(max_dist, ncore)`` boundaries without a key, and
  so do the live-in boundaries ``t <= max(max_dist, ncore)``.  Keyless
  threads run exactly as in the reference loop.
* **Realisation scan.**  Draws are per thread, and a skip must not change
  what any skipped thread would have drawn.  Deps with ``p`` 0 or 1 are
  the same on every thread.  A probabilistic dep (``0 < p < 1``) that
  manifests on a clean phase changes the outcome only if it would
  violate under the cycle's timings.  On a restarting phase any
  manifestation might, so all of them count, and a cycle in which a
  restarting thread drew one is rejected.  Each phase keeps the deps
  that could perturb it as an int bitmask; a skip scans the threads'
  draw bitmasks (:meth:`RealisationTable.mask`) in stream order and
  stops at the first thread a manifestation could perturb; that thread
  runs individually.
* **The n - ncore cap.**  A violation on thread ``j`` squashes at most
  ``n - 1 - j`` more speculative threads, which depends on ``j`` itself
  once ``j > n - ncore``.  A cycle with restarts never skips past
  ``n - ncore``, and no replay record is stored or used there.

``SimStats`` accumulated across a skip or a chain are sums of integral
values, bounded below 2**52, so regrouping them is exact: a skip's are
affine in the skipped count (full periods plus a prefix of one), a
chain's add its records'.  Every table is bounded independently of
``n``: the history holds ``_MAX_PERIOD + max(max_dist, ncore)`` threads,
the stretch map the last ``_MAX_PERIOD`` boundaries (and is cleared on
each skip), and the pattern and state tables, cycle index and replay
memo ``_MAX_TABLE`` entries each.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from ..config import ArchConfig
from .channels import KernelTimingTemplate, ThreadTiming
from .violations import RealisationTable, manifest_violations

__all__ = ["FastForward", "SteadyStateDetector"]

#: longest cycle proved; sizes the history and the stretch map.
_MAX_PERIOD = 512

#: entries per pattern table, state table, cycle index and replay memo
#: (a full table is cleared).
_MAX_TABLE = 4096

#: shifted timing values must stay exactly representable.
_MAX_MAGNITUDE = float(2 ** 52)


@dataclass
class FastForward:
    """A verified skip or replay chain: the event-loop state at thread
    ``target``."""

    target: int
    skipped: int
    stall_cycles: float
    prev_start: float
    prev_commit: float
    core_free: list[float]
    timings: dict[int, ThreadTiming]
    #: squash statistics accumulated over the skipped range (all zero
    #: for a violation-free cycle).
    misspeculations: int = 0
    squashed_threads: int = 0
    wasted_cycles: float = 0.0
    invalidation_cycles: float = 0.0
    #: the threads were replayed from records, not skipped through a
    #: proven cycle
    replayed: bool = False


class _Thread(NamedTuple):
    """One committed thread, as the detector remembers it."""

    timing: ThreadTiming
    pid: int
    commit: float
    restarts: int
    wasted: float
    squashed: int
    #: the key of the boundary before this thread (None: keyless)
    key: int | None


@dataclass
class _Cycle:
    """``period`` threads that replay shifted by ``drift`` per period.
    Per-phase times are relative to the start of the thread before
    phase 0."""

    period: int
    drift: float
    start: list[float]
    finish: list[float]
    commit: list[float]
    threads: list[_Thread]
    #: prefix sums over two periods of stall, restarts, wasted, squashed
    sums: list[list]
    #: per phase, the bitmask of probabilistic deps whose manifestation
    #: could perturb it
    masks: list[int]
    #: union of ``masks``: 0 when no draw can perturb any phase
    unsafe: int
    has_restarts: bool


class SteadyStateDetector:
    """Keys each boundary on the relative thread state: skips through
    proven cycles, proves new ones, and replays chains of memoised
    threads."""

    def __init__(self, template: KernelTimingTemplate, arch: ArchConfig,
                 n: int) -> None:
        self.template = template
        self.arch = arch
        self.n = n
        distances = [ch.hops for ch in template.channels]
        distances += [k for (_x, _y, k, _p) in template.speculated]
        self.max_dist = max(distances, default=1)
        self.window = max(self.max_dist, arch.ncore)
        #: a fractional spawn overhead makes every start non-integral,
        #: and a run this short has only live-in boundaries: no key forms
        self.viable = (float(arch.spawn_overhead).is_integer()
                       and n > self.window + 1)
        #: bitmask of the deps whose manifestation is a coin flip
        #: (0 < p < 1)
        self.prob_bits = sum(1 << i for i, (_x, _y, _k, p)
                             in enumerate(template.speculated)
                             if 0.0 < p < 1.0)
        self._hist: list[_Thread] = []
        self._first = 0          # thread index of _hist[0]
        #: value ids of issue patterns and of relative boundary states;
        #: ids are never reused, so clearing a full table only loses
        #: matches
        self._patterns: dict[tuple, int] = {}
        self._states: dict[tuple, int] = {}
        self._next_id = 0
        self._stretch: dict[int, int] = {}
        self._index: dict[int, tuple[_Cycle, int]] = {}
        self._memo: dict[tuple[int, int], tuple] = {}
        #: boundaries before this have no key (live-ins, unclean threads)
        self._keyed_from = self.window + 1
        #: newest restarting thread that drew a probabilistic manifestation
        self._blocked = -1
        #: the boundary whose key and ``r`` are held
        self._at = -1
        self._key: int | None = None
        self._r = 0.0
        #: thread whose draws stopped the last skip's scan
        self._stopped = -1

    # -- the key ------------------------------------------------------------

    def _intern(self, issue_rel: list[float]) -> int:
        """Value id of an issue pattern, -1 if it is not integral."""
        values = tuple(issue_rel)
        pid = self._patterns.get(values)
        if pid is None:
            if len(self._patterns) >= _MAX_TABLE:
                self._patterns.clear()
            pid = -1
            if all(v.is_integer() for v in values):
                pid = self._next_id
                self._next_id += 1
            self._patterns[values] = pid
        return pid

    def _key_at(self, t: int) -> int | None:
        """Key boundary ``t`` from the history, and hold it: the value id
        of its relative state."""
        self._at = t
        if t < self._keyed_from:
            self._key = None
            return None
        h = self._hist
        r = self._r = h[-1].timing.start
        md, nc = self.max_dist, self.arch.ncore
        state = (*[x.timing.start - r for x in h[-md:-1]],
                 *[x.pid for x in h[-md:]],
                 *[x.commit - r for x in h[-nc:]])
        key = self._states.get(state)
        if key is None:
            if len(self._states) >= _MAX_TABLE:
                self._states.clear()
            key = self._states[state] = self._next_id
            self._next_id += 1
        self._key = key
        return key

    # -- per boundary -------------------------------------------------------

    def attempt(self, t: int, realisations: RealisationTable
                ) -> FastForward | None:
        """Key boundary ``t`` (threads [0, t) are committed) and skip from
        it through a proven or a newly recurring cycle if the draws
        allow, or else replay the chain of memoised threads from it.
        Returns the skip or chain, or None to run thread ``t``."""
        key = self._key if self._at == t else self._key_at(t)
        if key is None:
            return None
        hit = self._index.get(key)
        if hit is not None:
            # the last scan already found this thread's draws unsafe
            if t != self._stopped:
                ff = self._skip(t, hit[0], hit[1], realisations)
                if ff is not None:
                    return ff
            return self._chain(t, key, realisations)
        t0 = self._stretch.get(key)
        # every thread of [t0, t) must be clean, and none may have
        # restarted on a probabilistic draw
        if t0 is not None and t0 >= self._keyed_from and t0 > self._blocked:
            cycle = self._cycle(t0, t)
            if cycle is not None:
                ff = self._skip(t, cycle, 0, realisations)
                if ff is not None:
                    return ff
        return self._chain(t, key, realisations)

    def observe(self, t: int, timing: ThreadTiming, commit: float,
                restarts: int, wasted: float, squashed: int,
                realisations: RealisationTable) -> None:
        """Record thread ``t``'s committed execution (``wasted`` and
        ``squashed`` are its contributions to the run stats), key
        boundary ``t + 1``, and memoise the thread with that key."""
        pid = self._intern(timing.issue_rel)
        clean = (pid >= 0 and timing.start.is_integer()
                 and commit.is_integer() and abs(commit) < _MAX_MAGNITUDE)
        if not clean:
            self._keyed_from = t + self.window + 1
        draws = realisations.mask(t)
        blocks = bool(restarts and draws & self.prob_bits)
        if blocks:
            self._blocked = t
        key, r = self._key, self._r
        self._push(t, _Thread(timing, pid, commit, restarts, wasted,
                              squashed, key))
        successor = self._key_at(t + 1)
        # a chain's stats stay exact sums of integral values
        if key is not None and clean and t < self.n - self.arch.ncore \
                and max(timing.total_stall, wasted) * self.n \
                < _MAX_MAGNITUDE:
            if len(self._memo) >= _MAX_TABLE:
                self._memo.clear()
            self._memo[(key, draws)] = (
                timing.start - r, timing.issue_rel, timing.total_stall,
                timing.finish - r, commit - r, restarts, wasted, squashed,
                pid, blocks, successor)

    def _push(self, t: int, x: _Thread) -> None:
        """Append committed thread ``t`` to the history and, if its
        boundary has a key, to the stretch map."""
        h = self._hist
        h.append(x)
        if len(h) > _MAX_PERIOD + self.window:
            del h[0]
            self._first += 1
        if x.key is None:
            return
        self._stretch[x.key] = t
        # the stretch map keeps the last _MAX_PERIOD boundaries
        old = t - _MAX_PERIOD
        if old >= self._first:
            k_old = h[old - self._first].key
            if k_old is not None and self._stretch.get(k_old) == old:
                del self._stretch[k_old]

    def _chain(self, t: int, key: int, realisations: RealisationTable
               ) -> FastForward | None:
        """Replay threads from boundary ``t`` while each one's key and
        draws have a record, up to ``n - ncore`` or a boundary that is a
        proven cycle's phase (the next :meth:`attempt` skips there)."""
        memo, index = self._memo, self._index
        cap = self.n - self.arch.ncore
        first, r = t, self._r
        stall = wasted = 0.0
        restarts = squashed = 0
        while t < cap:
            rec = memo.get((key, realisations.mask(t)))
            if rec is None:
                break
            start, issue_rel, x_stall, finish, commit, x_restarts, \
                x_wasted, x_squashed, pid, blocks, successor = rec
            if r + commit >= _MAX_MAGNITUDE:
                break
            timing = ThreadTiming(start=r + start, issue_rel=issue_rel,
                                  total_stall=x_stall, finish=r + finish)
            self._push(t, _Thread(timing, pid, r + commit, x_restarts,
                                  x_wasted, x_squashed, key))
            if blocks:
                self._blocked = t
            stall += x_stall
            restarts += x_restarts
            wasted += x_wasted
            squashed += x_squashed
            r = timing.start
            key = successor
            t += 1
            if key in index:
                break
        if t == first:
            return None
        self._at, self._key, self._r = t, key, r
        return self._forward(t, t - first, stall, restarts, wasted,
                             squashed, replayed=True)

    def _forward(self, target: int, skipped: int, stall: float,
                 restarts: int, wasted: float, squashed: int,
                 replayed: bool = False) -> FastForward:
        """The event-loop state at ``target``, read from the last
        ``window`` threads of the history."""
        ncore, md = self.arch.ncore, self.max_dist
        tail = self._hist[-self.window:]
        core_free = [0.0] * ncore
        for j, x in enumerate(tail[-ncore:], target - ncore):
            core_free[j % ncore] = x.commit
        return FastForward(
            target=target,
            skipped=skipped,
            stall_cycles=stall,
            prev_start=tail[-1].timing.start,
            prev_commit=tail[-1].commit,
            core_free=core_free,
            timings={j: x.timing
                     for j, x in enumerate(tail[-md:], target - md)},
            misspeculations=restarts,
            squashed_threads=squashed,
            wasted_cycles=wasted,
            invalidation_cycles=float(restarts)
            * self.arch.invalidation_overhead,
            replayed=replayed,
        )

    # -- cycles -------------------------------------------------------------

    def _cycle(self, t0: int, t: int) -> _Cycle | None:
        """Threads [t0, t) as a cycle (their boundary keys are equal), with
        every phase entered in the index."""
        h, first = self._hist, self._first
        threads = h[t0 - first:t - first]
        P = len(threads)
        base = h[t0 - 1 - first].timing.start
        start = [x.timing.start - base for x in threads]
        finish = [x.timing.finish - base for x in threads]
        commit = [x.commit - base for x in threads]
        sums = [list(accumulate(col + col, initial=0)) for col in (
            [x.timing.total_stall for x in threads],
            [x.restarts for x in threads],
            [x.wasted for x in threads],
            [x.squashed for x in threads])]
        # skipped stats stay exact sums of integral values
        periods = self.n // P + 2
        if max(sums[0][P], sums[2][P]) * periods >= _MAX_MAGNITUDE:
            return None
        masks = [0] * P
        if self.prob_bits:
            timings = {j: h[j - first].timing
                       for j in range(t0 - self.max_dist, t)}
            masks = [self.prob_bits if x.restarts else self.prob_bits & sum(
                1 << i for i in manifest_violations(
                    self.template, timings, t0 + q))
                for q, x in enumerate(threads)]
        unsafe = 0
        for m in masks:
            unsafe |= m
        cycle = _Cycle(period=P, drift=start[-1], start=start, finish=finish,
                       commit=commit, threads=threads, sums=sums,
                       masks=masks, unsafe=unsafe,
                       has_restarts=sums[1][P] > 0)
        if len(self._index) + P > _MAX_TABLE:
            self._index.clear()
        for q, x in enumerate(threads):
            self._index[x.key] = (cycle, q)
        return cycle

    def _scan(self, t: int, phase: int, cycle: _Cycle, limit: int,
              realisations: RealisationTable) -> int:
        """First thread in [t, limit) whose draws manifest a dependence
        that could perturb its phase (thread ``t`` is at ``phase``), or
        ``limit`` if none does."""
        masks, unsafe, P = cycle.masks, cycle.unsafe, cycle.period
        j = t
        while j < limit:
            first, draws = realisations.chunk(j)
            end = min(limit, first + len(draws))
            for i in range(j - first, end - first):
                hit = draws[i] & unsafe
                if hit and hit & masks[(phase + first + i - t) % P]:
                    return first + i
            j = end
        return limit

    def _skip(self, t: int, cycle: _Cycle, phase: int,
              realisations: RealisationTable) -> FastForward | None:
        """Skip from boundary ``t``, at ``phase`` of ``cycle``, as far as
        the draws allow."""
        n, P, D = self.n, cycle.period, cycle.drift
        limit = n - self.arch.ncore if cycle.has_restarts else n
        # per-phase times are relative to r at phase 0
        base = self._r - (cycle.start[phase - 1] if phase else 0.0)
        # commits are nondecreasing: the last phase's bounds every value
        if t >= limit or abs(base) + cycle.commit[-1] \
                + D * ((phase + limit - t) // P + 1) >= _MAX_MAGNITUDE:
            return None
        target = self._scan(t, phase, cycle, limit, realisations) \
            if cycle.unsafe else limit
        self._stopped = target
        if target <= t:
            return None
        skipped = target - t
        full, rem = divmod(skipped, P)
        stall, restarts, wasted, squashed = (
            full * s[P] + s[phase + rem] - s[phase] for s in cycle.sums)

        # the last ``window`` threads before target rebuild the history
        h, first = self._hist, self._first
        tail: list[_Thread] = []
        for j in range(target - self.window, target):
            if j < t:
                tail.append(h[j - first])
                continue
            w, q = divmod(phase + j - t, P)
            shift = base + w * D
            x = cycle.threads[q]
            timing = ThreadTiming(start=shift + cycle.start[q],
                                  issue_rel=x.timing.issue_rel,
                                  total_stall=x.timing.total_stall,
                                  finish=shift + cycle.finish[q])
            tail.append(_Thread(timing, x.pid, shift + cycle.commit[q],
                                x.restarts, x.wasted, x.squashed, None))
        self._hist = tail
        self._first = target - self.window
        self._stretch.clear()
        return self._forward(target, skipped, stall, restarts, wasted,
                             squashed)
