"""The compile→simulate session layer.

Every experiment driver in this repository runs the same per-loop flow —
IR → DDG → {SMS, TMS} → post-pass → :class:`~repro.spmt.channels.
KernelTimingTemplate` → simulation — and before this subsystem existed,
each driver re-ran it from scratch.  :class:`Session` makes the flow
*compile-once-reuse-everywhere*:

* **Artifact layer** (:mod:`repro.session.cache`,
  :mod:`repro.session.fingerprint`) — a content-addressed cache keyed by
  ``(loop fingerprint, ArchConfig, ResourceModel, SchedulerConfig,
  LatencyModel)``, with an in-memory LRU tier and an optional on-disk
  tier (``REPRO_CACHE_DIR`` or ``Session(cache_dir=...)``), storing
  :class:`~repro.experiments.pipeline.CompiledLoop` artifacts.  Hit /
  miss / eviction counters are surfaced through
  :meth:`Session.report`.
* **Execution layer** (:mod:`repro.session.runner`) — a
  :class:`ParallelRunner` (``concurrent.futures``-based, ``--jobs``
  controlled) behind :meth:`Session.compile_many` and
  :meth:`Session.simulate_many`, with deterministic result ordering and
  per-task error capture, so one pathological loop fails soft instead
  of killing a sweep; a batch of one task runs in-process.
* **Driver layer** — :func:`repro.compile_and_simulate` and every
  table/figure harness route through the process-wide default session
  (:func:`get_session`); the harnesses batch through its ``*_many``
  calls.

Quickstart::

    from repro.session import Session

    session = Session()                      # in-memory cache only
    compiled = session.compile(loop)         # miss: compiles
    compiled = session.compile(loop)         # hit: returns the artifact
    stats = session.simulate(compiled.tms, iterations=500)
    print(session.report())
"""

from __future__ import annotations

from .cache import ArtifactCache, CacheStats
from .fingerprint import artifact_key, fingerprint
from .runner import ParallelRunner, TaskResult, resolve_jobs
from .session import Session, SessionStats, get_session, reset_session, set_session

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "ParallelRunner",
    "Session",
    "SessionStats",
    "TaskResult",
    "artifact_key",
    "fingerprint",
    "get_session",
    "reset_session",
    "resolve_jobs",
    "set_session",
]
