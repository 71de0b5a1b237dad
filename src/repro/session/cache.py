"""Content-addressed artifact cache: in-memory LRU plus optional disk tier.

The in-memory tier is a plain LRU over fingerprint keys.  The disk tier
(enabled by passing ``disk_dir`` — the session layer passes its
``cache_dir`` argument or ``REPRO_CACHE_DIR``, with ``~`` expanded; there
is no default directory) persists artifacts as pickles
under two-level fan-out directories (``ab/ab12….pkl``), written
atomically (temp file + rename) so concurrent writers — e.g. the
:class:`~repro.session.runner.ParallelRunner`'s worker processes — never
expose a torn file.  Disk entries are self-invalidating across library
versions and artifact pickle layouts because the fingerprint key embeds
``repro.__version__`` and ``ARTIFACT_FORMAT``
(:mod:`repro.session.fingerprint`).

Within one process the cache is thread-safe: every public operation
(lookup, store, invalidate, stats read) runs under a single re-entrant
lock, so the serve broker (:mod:`repro.serve.broker`) can hit one
:class:`~repro.session.session.Session` from many request threads
without torn LRU state or lost counter updates.  The lock is held across
disk-tier I/O too — correctness over concurrency; the disk tier is an
optimisation, and artifact pickles are small.

Every operation feeds :class:`CacheStats`, the counters surfaced through
``Session.report()`` and ``tms-experiments --stats``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator

from ..obs import metrics

__all__ = ["MISS", "ArtifactCache", "CacheStats"]

#: Sentinel distinguishing "no cached value" from a cached ``None``.
MISS = object()


@dataclass
class CacheStats:
    """Hit/miss/invalidation counters of one :class:`ArtifactCache`."""

    hits: int = 0            #: in-memory tier hits
    misses: int = 0          #: lookups answered by neither tier
    stores: int = 0          #: values inserted into the memory tier
    evictions: int = 0       #: LRU evictions from the memory tier
    invalidations: int = 0   #: explicit invalidate() removals
    disk_hits: int = 0       #: misses in memory answered by the disk tier
    disk_stores: int = 0     #: values persisted to the disk tier
    disk_errors: int = 0     #: unreadable/corrupt disk entries discarded

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered by either tier."""
        n = self.lookups
        return (self.hits + self.disk_hits) / n if n else 0.0

    def summary(self) -> str:
        return (f"{self.hits} memory hits, {self.disk_hits} disk hits, "
                f"{self.misses} misses ({100 * self.hit_rate:.1f}% hit rate), "
                f"{self.evictions} evictions, {self.invalidations} "
                f"invalidations, {self.disk_errors} disk errors")


def _counter(name: str) -> metrics.Counter:
    """The current registry's ``cache.<name>`` counter, which every cache
    instance counts into."""
    return metrics.counter(f"cache.{name}",
                           f"artifact-cache {name} (all instances)")


class ArtifactCache:
    """Two-tier content-addressed store for compiled artifacts.

    Parameters
    ----------
    maxsize:
        In-memory entry cap; least recently used entries are evicted
        beyond it.  ``None`` means unbounded.
    disk_dir:
        Root of the on-disk tier; ``None`` disables persistence.  The
        tier is not size-capped.
    """

    def __init__(self, maxsize: int | None = 2048,
                 disk_dir: str | os.PathLike | None = None) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1 or None, got {maxsize}")
        self.maxsize = maxsize
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.stats = CacheStats()
        self._mem: OrderedDict[str, Any] = OrderedDict()
        # one lock for both tiers and the counters: get/put from many
        # broker threads must never tear the LRU order or drop updates.
        self._lock = threading.RLock()
        # list every cache counter, zeros included; each event looks its
        # counter up again, so it counts into the context current then.
        for f in fields(CacheStats):
            _counter(f.name)
        if self.disk_dir is not None:
            self._sweep_stale_tmps()

    def _count(self, name: str) -> None:
        """One more ``name`` event, in this cache's :class:`CacheStats`
        and in the current registry's ``cache.<name>`` counter."""
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        _counter(name).inc()

    # -- lookup / store -----------------------------------------------------

    def get(self, key: str) -> Any:
        """Return the cached value for ``key`` or the :data:`MISS`
        sentinel.  Disk hits are promoted into the memory tier."""
        with self._lock:
            if key in self._mem:
                self._mem.move_to_end(key)
                self._count("hits")
                return self._mem[key]
            if self.disk_dir is not None:
                value = self._disk_read(key)
                if value is not MISS:
                    self._count("disk_hits")
                    self._mem_put(key, value)
                    return value
            self._count("misses")
            return MISS

    def put(self, key: str, value: Any) -> None:
        """Insert ``value`` under ``key`` in both tiers."""
        with self._lock:
            self._mem_put(key, value)
            self._count("stores")
            if self.disk_dir is not None:
                self._disk_write(key, value)

    def invalidate(self, key: str) -> bool:
        """Drop ``key`` from both tiers; True if anything was removed."""
        with self._lock:
            removed = self._mem.pop(key, MISS) is not MISS
            path = self._disk_path(key)
            if path is not None and path.exists():
                try:
                    path.unlink()
                    removed = True
                except OSError:
                    self._count("disk_errors")
            if removed:
                self._count("invalidations")
            return removed

    def clear(self) -> None:
        """Empty the memory tier (disk entries are left in place)."""
        with self._lock:
            self._mem.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._mem or (
                self.disk_dir is not None
                and (p := self._disk_path(key)) is not None and p.exists())

    def keys(self) -> Iterator[str]:
        with self._lock:
            return iter(list(self._mem.keys()))

    def stats_dict(self) -> dict[str, Any]:
        """The cache's counters and shape as one JSON-able dict — the
        payload behind the serve daemon's ``/stats`` endpoint."""
        with self._lock:
            s = self.stats
            return {
                "hits": s.hits,
                "misses": s.misses,
                "stores": s.stores,
                "evictions": s.evictions,
                "invalidations": s.invalidations,
                "disk_hits": s.disk_hits,
                "disk_stores": s.disk_stores,
                "disk_errors": s.disk_errors,
                "hit_rate": s.hit_rate,
                "entries": len(self._mem),
                "maxsize": self.maxsize,
                "disk_tier": self.disk_dir is not None,
            }

    # -- memory tier --------------------------------------------------------

    def _mem_put(self, key: str, value: Any) -> None:
        self._mem[key] = value
        self._mem.move_to_end(key)
        if self.maxsize is not None:
            while len(self._mem) > self.maxsize:
                self._mem.popitem(last=False)
                self._count("evictions")

    # -- disk tier ----------------------------------------------------------

    def _disk_path(self, key: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / key[:2] / f"{key}.pkl"

    def _disk_read(self, key: str) -> Any:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return MISS
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # corrupt / truncated / version-incompatible entry: discard so
            # the recompiled artifact can replace it.
            self._count("disk_errors")
            try:
                path.unlink()
            except OSError:
                pass
            return MISS

    def _disk_write(self, key: str, value: Any) -> None:
        path = self._disk_path(key)
        assert path is not None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._count("disk_stores")
        except (OSError, pickle.PicklingError):
            # persistence is an optimisation; never fail a compile on it.
            self._count("disk_errors")

    def _sweep_stale_tmps(self, max_age_s: float = 3600.0) -> int:
        """Remove orphaned ``*.tmp`` files left by writers killed
        mid-write.  Atomic rename means such orphans are never *read* as
        entries, but they would otherwise accumulate forever; only files
        older than ``max_age_s`` are removed so a live concurrent
        writer's in-flight temp file is untouched.  Returns the number
        of files removed.
        """
        assert self.disk_dir is not None
        if not self.disk_dir.is_dir():
            return 0
        removed = 0
        cutoff = time.time() - max_age_s
        for tmp in self.disk_dir.glob("??/*.tmp"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    removed += 1
            except OSError:
                continue
        return removed
