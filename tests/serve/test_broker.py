"""Broker semantics: coalescing, admission control, deadlines, errors."""

from __future__ import annotations

import threading

import pytest

import repro.serve.broker as broker_mod
from repro.errors import ProtocolError
from repro.serve.broker import RequestBroker, execute_request
from repro.serve.protocol import ServeRequest, response_bytes
from repro.session import Session

from .conftest import AXPY_SRC


def _req(**kw):
    base = dict(kind="compile", source=AXPY_SRC)
    base.update(kw)
    return ServeRequest(**base)


@pytest.fixture
def broker(registry, span_tracer):
    """A real broker over a sequential session (broker tests exercise
    admission, not parallelism)."""
    b = RequestBroker(session=Session(jobs=1))
    yield b
    b.stop(drain=False, timeout=1.0)


def _gated_broker(registry, gate: threading.Event, *,
                  execute=None) -> RequestBroker:
    """A broker whose execution blocks on ``gate`` — lets tests pin
    jobs in flight deterministically."""
    inner = execute or execute_request

    def gated(session, request, **kw):
        gate.wait(timeout=30.0)
        return inner(session, request, **kw)

    return RequestBroker(session=Session(jobs=1), execute=gated)


def _wait_until(predicate, timeout: float = 10.0) -> None:
    import time
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition never became true")
        time.sleep(0.005)


# -- basics ------------------------------------------------------------------

def test_submit_computes_and_then_serves_from_cache(broker):
    resp1, served1 = broker.submit(_req())
    resp2, served2 = broker.submit(_req())
    assert (served1, served2) == ("computed", "cached")
    assert response_bytes(resp1) == response_bytes(resp2)
    assert resp1["status"] == "ok"
    assert resp1["result"]["loop"] == "axpy"
    assert broker.counts["completed"] == 1
    assert broker.counts["result_hits"] == 1
    assert broker.session.stats.compiles == 1


def test_submit_accepts_wire_payloads(broker):
    resp, served = broker.submit({"kind": "compile", "source": AXPY_SRC})
    assert served == "computed"
    assert resp["status"] == "ok"


def test_submit_propagates_protocol_errors(broker):
    with pytest.raises(ProtocolError, match="unknown request kind"):
        broker.submit({"kind": "nope", "source": AXPY_SRC})


def test_simulate_requests_return_stats(broker):
    resp, _ = broker.submit(_req(kind="simulate", iterations=64))
    result = resp["result"]
    assert result["kind"] == "simulate"
    assert result["policy"] == "tms"
    assert result["stats"]["iterations"] == 64
    assert result["stats"]["total_cycles"] > 0
    assert result["kernel"]


def test_stats_payload_shape(broker):
    broker.submit(_req())
    stats = broker.stats()
    assert stats["queue_depth"] == 0
    assert stats["counts"]["requests"] == 1
    assert stats["cache"]["misses"] == 1
    assert stats["result_cache"]["stores"] == 1
    assert stats["session"]["compiles"] == 1
    assert not stats["draining"]


# -- coalescing --------------------------------------------------------------

def test_concurrent_identical_requests_coalesce(registry, span_tracer):
    """N concurrent identical submits → exactly one computation,
    byte-identical responses for every waiter."""
    gate = threading.Event()
    broker = _gated_broker(registry, gate)
    try:
        n = 8
        outcomes: list[tuple[dict, str]] = [None] * n  # type: ignore

        def submit(i):
            outcomes[i] = broker.submit(_req())

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        # every submission is in (requests counter), exactly one job is
        # in flight — only then may it execute
        _wait_until(lambda: broker.counts["requests"] == n
                    and broker.queue_depth() == 1)
        gate.set()
        for t in threads:
            t.join(timeout=30.0)

        assert broker.session.stats.compiles == 1         # one computation
        assert broker.session.cache.stats.misses == 1     # one cache miss
        assert broker.counts["completed"] == 1
        assert broker.counts["coalesce_hits"] == n - 1
        bodies = {response_bytes(resp) for resp, _ in outcomes}
        assert len(bodies) == 1                           # byte-identical
        served = sorted(s for _, s in outcomes)
        assert served == ["coalesced"] * (n - 1) + ["computed"]
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_distinct_requests_do_not_coalesce(registry, span_tracer):
    broker = RequestBroker(session=Session(jobs=1))
    try:
        broker.submit(_req(cores=2))
        broker.submit(_req(cores=4))
        assert broker.counts["coalesce_hits"] == 0
        assert broker.session.stats.compiles == 2
    finally:
        broker.stop(drain=False, timeout=1.0)


# -- admission control -------------------------------------------------------

def test_queue_full_rejection(registry, span_tracer, monkeypatch):
    monkeypatch.setattr(broker_mod, "MAX_QUEUE_DEPTH", 2)
    gate = threading.Event()
    broker = _gated_broker(registry, gate)
    try:
        results = {}

        def submit(name, req):
            results[name] = broker.submit(req)

        t1 = threading.Thread(target=submit, args=("a", _req(cores=2)))
        t2 = threading.Thread(target=submit, args=("b", _req(cores=4)))
        t1.start()
        t2.start()
        _wait_until(lambda: broker.queue_depth() == 2)

        resp, served = broker.submit(_req(cores=8))       # over the bound
        assert served == "rejected"
        assert resp["status"] == "rejected"
        assert resp["reason"] == "queue_full"
        assert broker.counts["rejects_queue_full"] == 1

        # coalescing onto an in-flight job is NOT a new admission — it
        # must still succeed at full depth
        t3 = threading.Thread(target=submit, args=("a2", _req(cores=2)))
        t3.start()
        gate.set()
        for t in (t1, t2, t3):
            t.join(timeout=30.0)
        assert results["a"][1] == "computed"
        assert results["b"][1] == "computed"
        assert results["a2"][1] in ("coalesced", "cached")
        assert results["a"][0]["status"] == "ok"
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_deadline_expired_in_queue_is_rejected(registry, span_tracer):
    gate = threading.Event()
    broker = _gated_broker(registry, gate)
    try:
        results = {}

        def submit(name, req):
            results[name] = broker.submit(req)

        # job A occupies the single executor...
        t1 = threading.Thread(target=submit, args=("a", _req(cores=2)))
        t1.start()
        _wait_until(lambda: broker.queue_depth() == 1)
        # ...so job B's tiny deadline burns down while it queues
        t2 = threading.Thread(
            target=submit,
            args=("b", _req(cores=4, deadline_seconds=0.001)))
        t2.start()
        _wait_until(lambda: broker.queue_depth() == 2)
        import time
        time.sleep(0.05)
        gate.set()
        t1.join(timeout=30.0)
        t2.join(timeout=30.0)

        assert results["a"][0]["status"] == "ok"
        resp, served = results["b"]
        assert served == "rejected"
        assert resp["reason"] == "deadline"
        assert broker.counts["rejects_deadline"] == 1
        # a rejected job must not poison the result cache
        resp2, served2 = broker.submit(_req(cores=4))
        assert served2 == "computed"
        assert resp2["status"] == "ok"
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_deadline_bounds_the_wait_not_the_work(registry, span_tracer,
                                              monkeypatch):
    """A job that has started runs to completion under a deadline it
    overruns: its response is ok and cached, and no thread outlives it."""
    import time

    import repro.session.session as session_mod

    compile_uncached = session_mod._compile_uncached

    def slow(payload):
        time.sleep(0.5)
        return compile_uncached(payload)

    monkeypatch.setattr(session_mod, "_compile_uncached", slow)
    broker = RequestBroker(session=Session(jobs=1)).start()
    try:
        threads = threading.active_count()
        resp, served = broker.submit(_req(deadline_seconds=0.2))
        assert (resp["status"], served) == ("ok", "computed")
        assert threading.active_count() == threads
        resp2, served2 = broker.submit(_req(deadline_seconds=0.2))
        assert served2 == "cached"
        assert response_bytes(resp2) == response_bytes(resp)
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_expired_deadline_in_queue_is_never_executed(registry,
                                                     span_tracer):
    """A job whose deadline burned down while queued must be rejected
    *without* touching the execution path — deadline misses shed work,
    they never waste it."""
    gate = threading.Event()
    calls: list[str] = []

    def counting(session, request, **kw):
        calls.append(request.fingerprint())
        return execute_request(session, request, **kw)

    broker = _gated_broker(registry, gate, execute=counting)
    try:
        results = {}

        def submit(name, req):
            results[name] = broker.submit(req)

        t1 = threading.Thread(target=submit, args=("a", _req(cores=2)))
        t1.start()
        _wait_until(lambda: broker.queue_depth() == 1)
        expiring = _req(cores=4, deadline_seconds=0.001)
        t2 = threading.Thread(target=submit, args=("b", expiring))
        t2.start()
        _wait_until(lambda: broker.queue_depth() == 2)
        import time
        time.sleep(0.05)
        gate.set()
        t1.join(timeout=30.0)
        t2.join(timeout=30.0)

        assert results["b"][0]["reason"] == "deadline"
        assert calls == [_req(cores=2).fingerprint()]   # b never executed
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_deadline_mid_coalesce_wait_rejects_only_the_waiter(registry,
                                                            span_tracer):
    """A coalesced waiter whose own deadline expires is rejected, but
    the computation it adopted keeps running for everyone else."""
    gate = threading.Event()
    broker = _gated_broker(registry, gate)
    try:
        results = {}

        def submit():
            results["primary"] = broker.submit(_req())

        t1 = threading.Thread(target=submit)
        t1.start()
        _wait_until(lambda: broker.queue_depth() == 1)
        # same fingerprint (deadline_seconds is QoS, not identity):
        # this waiter coalesces, then times out while the job is gated
        resp, served = broker.submit(_req(deadline_seconds=0.1))
        assert served == "rejected"
        assert resp["reason"] == "deadline"
        assert broker.counts["rejects_deadline"] == 1

        gate.set()
        t1.join(timeout=30.0)
        assert results["primary"][0]["status"] == "ok"
        assert results["primary"][1] == "computed"
        # the adopted computation completed and is cached for retries
        resp2, served2 = broker.submit(_req())
        assert served2 == "cached"
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_non_positive_deadlines_are_protocol_errors(broker):
    with pytest.raises(ProtocolError, match="deadline_seconds"):
        broker.submit({"kind": "compile", "source": AXPY_SRC,
                       "deadline_seconds": 0})
    with pytest.raises(ProtocolError, match="deadline_seconds"):
        ServeRequest(kind="compile", source=AXPY_SRC,
                     deadline_seconds=-1.0)


def test_draining_broker_rejects_new_work(broker):
    broker.begin_drain()
    resp, served = broker.submit(_req())
    assert served == "rejected"
    assert resp["reason"] == "draining"
    assert broker.counts["rejects_draining"] == 1


# -- failure paths -----------------------------------------------------------

def test_execution_errors_become_typed_responses(registry, span_tracer):
    def boom(session, request, **kw):
        raise ValueError("no feasible II")

    broker = RequestBroker(session=Session(jobs=1), execute=boom)
    try:
        resp, served = broker.submit(_req())
        assert served == "computed"
        assert resp["status"] == "error"
        assert "no feasible II" in resp["error"]
        assert broker.counts["errors"] == 1
        # errors are not cached: the next identical submit re-executes
        _, served2 = broker.submit(_req())
        assert served2 == "computed"
    finally:
        broker.stop(drain=False, timeout=1.0)


def test_stop_drains_in_flight_work(registry, span_tracer):
    gate = threading.Event()
    broker = _gated_broker(registry, gate)
    result = {}

    def submit():
        result["out"] = broker.submit(_req())

    t = threading.Thread(target=submit)
    t.start()
    _wait_until(lambda: broker.queue_depth() == 1)
    stopper = threading.Thread(target=lambda: result.update(
        drained=broker.stop(drain=True, timeout=30.0)))
    stopper.start()
    gate.set()
    t.join(timeout=30.0)
    stopper.join(timeout=30.0)
    assert result["drained"] is True
    assert result["out"][0]["status"] == "ok"


# -- telemetry ---------------------------------------------------------------

def test_cache_metrics_count_only_the_artifact_cache(registry, span_tracer,
                                                    broker):
    """Responses answered from the broker's response cache are
    ``serve.result_hits``, not artifact-cache traffic: the registry's
    ``cache.*`` counters equal the session cache's own stats."""
    for _ in range(3):
        broker.submit(_req(kind="simulate", iterations=64))
    assert broker.counts["result_hits"] == 2
    totals = registry.deterministic_totals()
    stats = broker.session.cache.stats_dict()
    for name in ("hits", "misses", "stores"):
        assert totals[f"cache.{name}"] == stats[name], name


def test_serve_metrics_and_spans(registry, span_tracer, broker):
    broker.submit(_req())
    broker.submit(_req())
    totals = registry.deterministic_totals()
    assert totals["serve.requests"] == 2
    assert totals["serve.completed"] == 1
    assert totals["serve.result_hits"] == 1
    roots = [s for s in span_tracer.spans if s.name == "serve.request"]
    assert len(roots) == 1
    assert roots[0].attrs["kind"] == "compile"
    assert roots[0].attrs["outcome"] == "ok"
    assert roots[0].attrs["request_id"] == _req().request_id()
