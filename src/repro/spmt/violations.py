"""Speculated-dependence realisation and violation detection (the MDT).

The memory disambiguation table sits between L1 and L2 and records
speculative loads; when a less speculative thread's store hits a recorded
address, the reader thread (and everything more speculative) is squashed.

We model realisation per (dependence, consumer-thread) pair: an
inter-thread memory flow dependence ``x -> y`` with kernel distance ``k``
and probability ``p`` *manifests* for thread ``j`` with probability ``p``
(independent Bernoulli draws, seeded separately from the profiling run).
A manifested dependence is violated iff the consumer issued before the
producer completed:

    issue_j(y) < completion_{j-k}(x)

and the violation is *detected* when the producer's store completes (its
MDT lookup).

Thread ``j``'s draws are row ``j`` of one seeded stream, whichever
threads the simulator reads or skips: :class:`RealisationTable` draws
them in chunks of threads and gives each thread's draws as an int
bitmask, bit ``i`` set when dependence ``i`` manifests (read by
:func:`detect_violation`, the fast path's memo key and its skip scans).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator

import numpy as np

from .channels import KernelTimingTemplate, ThreadTiming

__all__ = ["RealisationTable", "detect_violation", "manifest_violations"]


#: threads per chunk of realisation draws.
_CHUNK = 2048

#: mask bits per int64 word of a chunk's mask product.
_WORD = 63
_BITS = np.left_shift(np.int64(1), np.arange(_WORD, dtype=np.int64))


class RealisationTable:
    """Bernoulli realisations for every (dependence, thread), drawn in
    chunks of threads.

    Thread ``t``'s draws are row ``t`` of the seeded stream: a chunk of
    ``min(n, 2048)`` threads is drawn in one batch, which consumes the
    generator exactly as one ``n_deps`` draw per thread in thread order
    would, so any read order and any skipped threads see the reference
    loop's draws.  The table holds the chunk being read and the one
    before it, which bounds memory for long runs; a read before that
    raises ``IndexError`` rather than drawing fresh values.
    """

    def __init__(self, template: KernelTimingTemplate, seed: int,
                 n: int = _CHUNK) -> None:
        self.template = template
        self._rng = np.random.default_rng(seed)
        self._probs = np.array(
            [p for (_x, _y, _k, p) in template.speculated], dtype=np.float64)
        self._chunk = min(n, _CHUNK)
        #: draws of threads [_first, _first + len(_masks)) as bitmasks
        self._first = 0
        self._masks: list[int] = []

    def _hold(self, thread: int) -> int:
        """Index of ``thread``'s mask, drawing chunks up to the one that
        holds it."""
        if thread < self._first:
            raise IndexError(
                f"thread {thread}'s realisation draws were dropped (the "
                f"table holds threads from {self._first})")
        chunk, nspec = self._chunk, len(self._probs)
        while thread >= self._first + len(self._masks):
            rows = self._rng.random((chunk, nspec)) < self._probs
            masks = [0] * chunk
            for lo in range(0, nspec, _WORD):
                word = (rows[:, lo:lo + _WORD]
                        @ _BITS[:min(_WORD, nspec - lo)]).tolist()
                masks = [m | w << lo for m, w in zip(masks, word)] \
                    if lo else word
            # keep the newest held chunk beside the new one
            self._first += max(0, len(self._masks) - chunk)
            self._masks = self._masks[-chunk:] + masks
        return thread - self._first

    def mask(self, thread: int) -> int:
        """Which speculated dependences manifest for consumer
        ``thread``: bit ``i`` set when dependence ``i`` does.

        Realisations are sticky: the paper's model re-executes the
        *same* dynamic iteration, so a restarted thread sees the draws
        of its first execution.
        """
        i = thread - self._first
        if not 0 <= i < len(self._masks):
            i = self._hold(thread)
        return self._masks[i]

    def chunk(self, thread: int) -> tuple[int, list[int]]:
        """``(first, masks)``: the held bitmasks, ``masks[k]`` being
        thread ``first + k``'s, drawn through ``thread``'s chunk."""
        self.mask(thread)
        return self._first, self._masks


def _violated(template: KernelTimingTemplate,
              timings: dict[int, ThreadTiming], thread: int,
              mask: int) -> Iterator[tuple[int, float]]:
    """``(dependence_index, detection_time)`` of every speculated
    dependence in ``mask`` that ``thread`` violates: its consumer issued
    before the producer ``k`` threads back completed.  Producers in
    threads that do not exist (j - k < 0) cannot be violated — their
    values are committed memory state."""
    cons = timings[thread]
    for idx, (x, y, k, _p) in enumerate(template.speculated):
        if not mask >> idx & 1 or thread < k:
            continue
        prod = timings.get(thread - k)
        if prod is None:
            continue
        produced = prod.completion_time(template, x)
        if cons.issue_time(template, y) < produced:
            yield idx, produced


def detect_violation(template: KernelTimingTemplate,
                     timings: dict[int, ThreadTiming],
                     mask: int, thread: int) -> tuple[int, float] | None:
    """First violated speculated dependence for ``thread`` among those
    that manifest (the set bits of ``mask``), if any.

    Returns ``(dependence_index, detection_time)`` for the violation with
    the earliest detection time (the lowest index on a tie), or None.
    """
    return min(_violated(template, timings, thread, mask),
               key=itemgetter(1), default=None)


def manifest_violations(template: KernelTimingTemplate,
                        timings: dict[int, ThreadTiming],
                        thread: int) -> list[int]:
    """Dependence indices that WOULD violate for ``thread`` if they
    manifested — :func:`detect_violation`'s timing condition evaluated
    under an all-manifest realisation.

    The fast path uses this to classify each dependence at each phase of
    a cycle: an empty list at every phase proves no realisation can
    produce a violation, and a non-empty one marks the dependences whose
    Bernoulli draws must be scanned before skipping.
    """
    return [idx for idx, _t in _violated(template, timings, thread, -1)]
