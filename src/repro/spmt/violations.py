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
"""

from __future__ import annotations

import numpy as np

from .channels import KernelTimingTemplate, ThreadTiming

__all__ = ["RealisationTable", "detect_violation", "manifest_violations"]


class RealisationTable:
    """Pre-drawn Bernoulli realisations for every (dependence, thread).

    Drawing lazily per thread, and releasing a thread's draws once it
    has committed (:meth:`release`), keeps memory bounded for long runs
    while staying deterministic for a given seed.
    """

    def __init__(self, template: KernelTimingTemplate, seed: int) -> None:
        self.template = template
        self._rng = np.random.default_rng(seed)
        self._cache: dict[int, tuple[bool, ...]] = {}
        self._probs = np.array(
            [p for (_x, _y, _k, p) in template.speculated], dtype=np.float64)
        # most recent batch draw (fast-path skip scans): first thread
        # index plus the boolean realisation matrix for its thread range.
        self._block_first = 0
        self._block: np.ndarray | None = None

    def realised(self, thread: int) -> tuple[bool, ...]:
        """Which speculated dependences manifest for consumer ``thread``.

        Draws are made in thread order; querying out of order is supported
        through the cache.  Realisations are sticky: the paper's model
        re-executes the *same* dynamic iteration, so a restarted thread
        sees the draws of its first execution.
        """
        got = self._cache.get(thread)
        if got is None:
            block = self._block
            if block is not None and \
                    self._block_first <= thread < self._block_first + len(block):
                got = tuple(block[thread - self._block_first].tolist())
            else:
                draws = self._rng.random(len(self.template.speculated)) \
                    if self.template.speculated else np.empty(0)
                got = tuple(bool(d < p) for d, (_x, _y, _k, p)
                            in zip(draws, self.template.speculated))
            self._cache[thread] = got
        return got

    def release(self, thread: int) -> None:
        """Forget ``thread``'s draws: it has committed, and only its own
        restarts re-read them."""
        self._cache.pop(thread, None)

    def block(self, first: int, count: int) -> np.ndarray:
        """Realisation matrix (``count`` x n_deps, bool) for threads
        ``[first, first + count)``, drawn in one batch.

        Batched draws consume the underlying stream exactly as ``count``
        sequential :meth:`realised` calls would, so per-thread and batched
        access interleave without diverging from the reference simulator.
        An overlap with the previous block is served from that block
        (those threads' draws were already consumed), and rows it holds
        past the request stay retained; only threads beyond it draw fresh
        values.  The caller must request threads in simulation order,
        which is how the event loop proceeds.
        """
        nspec = len(self.template.speculated)
        if nspec == 0:
            return np.zeros((count, 0), dtype=bool)
        mat = np.zeros((0, nspec), dtype=bool)
        prev, prev_first = self._block, self._block_first
        if prev is not None and prev_first <= first < prev_first + len(prev):
            mat = prev[first - prev_first:]
        missing = count - len(mat)
        if missing > 0:
            draws = self._rng.random((missing, nspec))
            mat = np.concatenate((mat, draws < self._probs))
        self._block_first = first
        self._block = mat
        return mat[:count]


def detect_violation(template: KernelTimingTemplate,
                     timings: dict[int, ThreadTiming],
                     realised: tuple[bool, ...],
                     thread: int) -> tuple[int, float] | None:
    """First violated speculated dependence for ``thread``, if any.

    Returns ``(dependence_index, detection_time)`` for the violation with
    the earliest detection time, or None.  Producers in threads that do not
    exist (j - k < 0) cannot be violated — their values are committed
    memory state.
    """
    worst: tuple[int, float] | None = None
    for idx, (x, y, k, _p) in enumerate(template.speculated):
        if not realised[idx]:
            continue
        producer_thread = thread - k
        if producer_thread < 0:
            continue
        prod = timings.get(producer_thread)
        if prod is None:
            continue
        cons = timings[thread]
        produced = prod.completion_time(template, x)
        consumed = cons.issue_time(template, y)
        if consumed < produced:
            if worst is None or produced < worst[1]:
                worst = (idx, produced)
    return worst


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
    out: list[int] = []
    cons = timings[thread]
    for idx, (x, y, k, _p) in enumerate(template.speculated):
        producer_thread = thread - k
        if producer_thread < 0:
            continue
        prod = timings.get(producer_thread)
        if prod is None:
            continue
        if cons.issue_time(template, y) < prod.completion_time(template, x):
            out.append(idx)
    return out
