"""The request broker: admission control, coalescing, execution.

The broker is the heart of the serve daemon.  Request threads (one per
HTTP connection under the threading server) call :meth:`RequestBroker.
submit`, which walks the admission pipeline:

1. **draining?** — a daemon in graceful shutdown answers every new
   submission with a typed ``draining`` rejection;
2. **result cache** — a completed identical request (same work
   fingerprint) is answered from the broker's bounded LRU of past
   responses without touching the queue (``serve.result_hits``);
3. **coalescing** — an *in-flight* identical request adopts the
   existing job: the waiter blocks on the same event and receives the
   exact same response object (``serve.coalesce_hits``), so N
   concurrent identical submissions cost one computation;
4. **admission control** — a genuinely new job is admitted only while
   the number of distinct in-flight jobs is below
   :data:`MAX_QUEUE_DEPTH`; beyond it the submission is rejected
   ``queue_full`` (backpressure, never an unbounded queue);
5. **execution** — admitted jobs are executed FIFO by the broker's
   one executor thread against one shared
   :class:`~repro.session.session.Session` (its artifact cache and
   template memo stay warm across requests), each wrapped in a
   ``serve.request`` span.

A request's ``deadline_seconds`` bounds the wait, not the work: a job
whose deadline expired while it queued is rejected ``deadline`` without
running, and so is a coalesced waiter whose own deadline expires, but a
job that has started runs to completion and its response is cached.

:func:`execute_request` is the single execution path — the daemon and
the serve-vs-direct equivalence tests call the same function, so "the
daemon answers exactly what a local Session would" is checkable
byte-for-byte.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Mapping

from ..config import ArchConfig
from ..obs import metrics
from ..obs.telemetry import span
from ..session import Session
from .protocol import (
    REJECT_REASONS,
    ServeRequest,
    compile_result_dict,
    error_response,
    ok_response,
    rejected_response,
    simulate_result_dict,
)

__all__ = ["MAX_QUEUE_DEPTH", "RequestBroker", "execute_request"]

#: distinct in-flight jobs admitted before ``queue_full`` rejections
MAX_QUEUE_DEPTH = 64

#: completed responses kept for identical future requests (LRU)
_RESULT_CACHE_SIZE = 512

#: sentinel shutting the executor thread down
_STOP = object()


def execute_request(session: Session,
                    request: ServeRequest) -> dict[str, Any]:
    """Execute one request against ``session`` and return its result
    payload — the daemon's execution path, importable so direct callers
    (and the equivalence tests) compute byte-identical results.

    Routes through ``compile_many`` / ``simulate_many`` with lists of
    one, so serve-side and direct-side telemetry have the same shape and
    the artifact cache is shared.  One request is one task, so it runs
    in-process whatever the session's ``jobs``.
    """
    from ..ir import parse_loop, unroll_loop

    loop = parse_loop(request.source)
    if request.unroll > 1:
        loop = unroll_loop(loop, request.unroll)
    arch = ArchConfig.paper_default().with_cores(request.cores)
    compiled = session.compile_many([loop], arch)[0]
    if request.kind == "compile":
        return compile_result_dict(compiled)
    alg = compiled.tms if request.policy == "tms" else compiled.sms
    stats = session.simulate_many([alg], arch,
                                  iterations=request.iterations,
                                  seed=request.seed)[0]
    return simulate_result_dict(compiled, request.policy, alg, stats)


class _Job:
    """One admitted unit of work and everyone waiting on it."""

    __slots__ = ("request", "fingerprint", "admitted_at", "response",
                 "done")

    def __init__(self, request: ServeRequest, fingerprint: str,
                 admitted_at: float) -> None:
        self.request = request
        self.fingerprint = fingerprint
        self.admitted_at = admitted_at
        self.response: dict[str, Any] | None = None
        self.done = threading.Event()


class RequestBroker:
    """Thread-safe request front end over one :class:`Session`.

    Parameters
    ----------
    session:
        The compile/simulate context every job runs against.  Defaults
        to a fresh :class:`Session`.
    execute:
        The job execution function — :func:`execute_request` unless a
        test injects a stub.
    """

    def __init__(self, session: Session | None = None, *,
                 execute: Callable[..., dict[str, Any]] | None = None
                 ) -> None:
        self.session = session if session is not None else Session()
        self._execute = execute or execute_request
        #: fingerprint -> completed response, least recently used first
        #: (guarded by ``_lock``)
        self._results: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._queue: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._in_flight: dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None
        self._draining = False
        self._stopped = False
        #: exact submission-outcome tallies (mirrored into ``serve.*``
        #: registry metrics; kept locally too so summaries never race)
        self.counts = {
            "requests": 0,
            "completed": 0,
            "coalesce_hits": 0,
            "result_hits": 0,
            "errors": 0,
            "rejects_queue_full": 0,
            "rejects_deadline": 0,
            "rejects_draining": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RequestBroker":
        """Spawn the executor thread (idempotent)."""
        with self._lock:
            if self._thread is not None or self._stopped:
                return self
            self._thread = threading.Thread(target=self._worker_loop,
                                            name="serve-exec", daemon=True)
            self._thread.start()
        return self

    @property
    def draining(self) -> bool:
        return self._draining

    def begin_drain(self) -> None:
        """Stop admitting new jobs; in-flight jobs keep running."""
        self._draining = True

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every in-flight job has completed (or ``timeout``
        elapses); returns whether the queue fully drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._in_flight:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def stop(self, drain: bool = True,
             timeout: float | None = None) -> bool:
        """Graceful shutdown: reject new work, optionally wait for the
        queue to drain, stop the executor.  Returns whether the drain
        completed."""
        self.begin_drain()
        drained = self.drain(timeout) if drain else False
        with self._lock:
            already = self._stopped
            self._stopped = True
            thread = self._thread
        if not already and thread is not None:
            self._queue.put(_STOP)
            thread.join(timeout=5.0)
        return drained

    # -- submission ----------------------------------------------------------

    def submit(self, request: "ServeRequest | Mapping[str, Any]"
               ) -> tuple[dict[str, Any], str]:
        """Run one request through the admission pipeline; blocks until
        it completes, is answered from cache, or is rejected.

        Returns ``(response_dict, served)`` where ``served`` is how the
        response was produced: ``computed`` (this submission ran it),
        ``coalesced`` (it shared an identical in-flight job),
        ``cached`` (a past response answered it), or ``rejected``.
        Malformed request payloads raise
        :class:`~repro.errors.ProtocolError`.
        """
        if not isinstance(request, ServeRequest):
            request = ServeRequest.from_dict(request)
        self._count("requests")
        metrics.counter("serve.requests", "requests submitted").inc()
        fingerprint = request.fingerprint()
        if self._draining:
            return self._reject(request, "draining"), "rejected"
        with self._lock:
            cached = self._results.get(fingerprint)
            if cached is not None:
                self._results.move_to_end(fingerprint)
                self.counts["result_hits"] += 1
        if cached is not None:
            metrics.counter("serve.result_hits",
                            "requests answered from the response "
                            "cache").inc()
            return cached, "cached"
        with self._lock:
            job = self._in_flight.get(fingerprint)
            coalesced = job is not None
            if not coalesced:
                if len(self._in_flight) >= MAX_QUEUE_DEPTH:
                    return self._reject(request, "queue_full",
                                        locked=True), "rejected"
                job = _Job(request, fingerprint, time.monotonic())
                self._in_flight[fingerprint] = job
                self._gauge_depth_locked()
        if coalesced:
            self._count("coalesce_hits")
            metrics.counter("serve.coalesce_hits",
                            "requests coalesced onto an in-flight "
                            "identical job").inc()
        else:
            self._queue.put(job)
        self.start()
        deadline = request.deadline_seconds
        if coalesced and deadline is not None \
                and not job.done.wait(timeout=deadline):
            # this waiter's budget expired mid-coalesce-wait; the
            # computation it adopted keeps running for everyone else
            return self._reject(request, "deadline"), "rejected"
        job.done.wait()
        assert job.response is not None
        if job.response["status"] == "rejected":
            return job.response, "rejected"
        return job.response, ("coalesced" if coalesced else "computed")

    def _reject(self, request: ServeRequest, reason: str, *,
                locked: bool = False) -> dict[str, Any]:
        self._count(f"rejects_{reason}", locked=locked)
        metrics.counter(f"serve.rejects.{reason}",
                        f"requests rejected: {reason}").inc()
        return rejected_response(request, reason)

    def _count(self, name: str, *, locked: bool = False) -> None:
        if locked:
            self.counts[name] += 1
            return
        with self._lock:
            self.counts[name] += 1

    def _gauge_depth_locked(self) -> None:
        metrics.gauge("serve.queue_depth",
                      "distinct in-flight jobs").set(len(self._in_flight))

    # -- execution -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is _STOP:
                return
            try:
                self._run_job(job)
            except Exception as exc:  # noqa: BLE001 — waiters must wake
                self._count("errors")
                job.response = error_response(
                    job.request,
                    f"internal error: {type(exc).__name__}: {exc}")
            finally:
                with self._idle:
                    self._in_flight.pop(job.fingerprint, None)
                    self._gauge_depth_locked()
                    self._idle.notify_all()
                job.done.set()

    def _run_job(self, job: _Job) -> None:
        request = job.request
        deadline = request.deadline_seconds
        outcome = "ok"
        with span("serve.request", kind=request.kind,
                  request_id=request.request_id()) as s:
            if deadline is not None \
                    and time.monotonic() - job.admitted_at >= deadline:
                # the deadline burned down while the job sat in the queue
                response = self._reject(request, "deadline")
                outcome = "deadline"
            else:
                try:
                    result = self._execute(self.session, request)
                    response = ok_response(request, result)
                except Exception as exc:  # noqa: BLE001 — typed into the response
                    self._count("errors")
                    metrics.counter("serve.errors",
                                    "requests whose execution raised").inc()
                    response = error_response(
                        request, f"{type(exc).__name__}: {exc}")
                    outcome = "error"
            if s is not None:
                s.attrs["outcome"] = outcome
        if outcome == "ok":
            with self._lock:
                self.counts["completed"] += 1
                self._results[job.fingerprint] = response
                self._results.move_to_end(job.fingerprint)
                if len(self._results) > _RESULT_CACHE_SIZE:
                    self._results.popitem(last=False)
            metrics.counter("serve.completed",
                            "requests executed to completion").inc()
        job.response = response

    # -- reporting -----------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return len(self._in_flight)

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` payload: outcome tallies, both caches, the
        session's counters, and the admission bound.  The response
        cache stores every completed response, so its ``stores`` are
        the ``completed`` tally."""
        with self._lock:
            counts = dict(self.counts)
            depth = len(self._in_flight)
            entries = len(self._results)
        stats = self.session.stats
        return {
            "draining": self._draining,
            "queue_depth": depth,
            "max_queue_depth": MAX_QUEUE_DEPTH,
            "counts": counts,
            "cache": self.session.cache.stats_dict(),
            "result_cache": {"hits": counts["result_hits"],
                             "stores": counts["completed"],
                             "entries": entries},
            "session": {
                "compiles": stats.compiles,
                "simulations": stats.simulations,
                "template_builds": stats.template_builds,
                "template_hits": stats.template_hits,
            },
        }

    def summary(self) -> str:
        """One-line tally for shutdown logs and the run ledger."""
        c = self.counts
        rejected = sum(c[f"rejects_{reason}"] for reason in REJECT_REASONS)
        return (f"{c['requests']} requests: {c['completed']} computed, "
                f"{c['coalesce_hits']} coalesced, {c['result_hits']} cached, "
                f"{c['errors']} errors, {rejected} rejected")
