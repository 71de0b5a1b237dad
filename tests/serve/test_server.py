"""Daemon integration over real HTTP, and serve-vs-direct equivalence."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import sys
import threading
import time

import pytest

from repro.errors import AdmissionRejected, ProtocolError, ServerUnavailable
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.spans import SpanTracer, set_span_tracer, span_tree
from repro.serve import (
    ServeClient,
    ServeDaemon,
    ServeRequest,
    execute_request,
    response_bytes,
    wait_ready,
)
from repro.serve.protocol import PROTOCOL_VERSION, ok_response
from repro.session import Session

from .conftest import AXPY_SRC


@pytest.fixture
def daemon(registry, span_tracer):
    d = ServeDaemon(port=0, broker=None).start()
    client = ServeClient("127.0.0.1", d.port, timeout=60.0)
    assert wait_ready(client, timeout=15.0)
    yield d, client
    client.close()
    if not d.wait(timeout=0):
        d.stop(drain_timeout=10.0)


def _req(**kw):
    base = dict(kind="simulate", source=AXPY_SRC, iterations=64)
    base.update(kw)
    return ServeRequest(**base)


# -- integration -------------------------------------------------------------

def test_round_trip_and_warm_rerun(daemon):
    d, client = daemon
    first = client.submit(_req())
    second = client.submit(_req())
    assert first.ok and second.ok
    assert first.served == "computed"
    assert second.served == "cached"
    assert first.body == second.body           # byte-identical off the wire
    assert first.result["stats"]["iterations"] == 64

    stats = client.stats()
    assert stats["counts"]["requests"] == 2
    assert stats["counts"]["completed"] == 1
    assert stats["counts"]["result_hits"] == 1
    assert stats["session"]["compiles"] == 1

    health = client.healthz()
    assert health["status"] == "ok"


def test_compile_requests_over_http(daemon):
    _, client = daemon
    out = client.submit(_req(kind="compile"))
    assert out.ok
    assert out.result["algorithms"]["tms"]["ii"] >= out.result["mii"]
    assert out.result["algorithms"]["tms"]["kernel"]


def test_malformed_requests_get_http_400(daemon):
    _, client = daemon
    with pytest.raises(ProtocolError, match="unknown request kind"):
        client.submit({"kind": "transmogrify", "source": AXPY_SRC})
    with pytest.raises(ProtocolError, match="unknown request field"):
        client.submit({"kind": "compile", "source": AXPY_SRC, "bogus": 1})


def test_unknown_paths_get_http_404(daemon):
    d, client = daemon
    status, _, _ = client._round_trip("GET", "/nope")
    assert status == 404
    status, _, _ = client._round_trip("POST", "/nope")
    assert status == 404


def test_draining_daemon_rejects_with_503(daemon):
    d, client = daemon
    d.broker.begin_drain()
    assert client.healthz()["status"] == "draining"
    with pytest.raises(AdmissionRejected) as excinfo:
        client.submit(_req())
    assert excinfo.value.reason == "draining"
    out = client.submit(_req(), raise_on_reject=False)
    assert out.http_status == 503
    assert out.served == "rejected"


def test_shutdown_endpoint_drains_and_stops(daemon):
    d, client = daemon
    assert client.submit(_req(kind="compile")).ok
    reply = client.shutdown()
    assert reply["status"] == "stopping"
    assert d.wait(timeout=30.0)
    assert d.drained is True
    # the listener is gone: the next call is a typed unavailability
    assert not client.ping()


def test_healthz_carries_state_and_version(daemon):
    d, client = daemon
    assert client.healthz() == {"status": "ok",
                                "protocol_version": PROTOCOL_VERSION}
    d.broker.begin_drain()
    assert client.healthz() == {"status": "draining",
                                "protocol_version": PROTOCOL_VERSION}


def test_oversized_bodies_get_http_413(registry, span_tracer):
    d = ServeDaemon(port=0, broker=None, max_body_bytes=64).start()
    try:
        with ServeClient("127.0.0.1", d.port, timeout=30.0) as client:
            assert wait_ready(client, timeout=15.0)
            body = json.dumps(_req().to_dict()).encode("utf-8")
            assert len(body) > 64
            status, headers, raw = client._round_trip("POST", "/submit",
                                                      body)
            assert status == 413
            assert headers["x-repro-served"] == "rejected"
            payload = json.loads(raw)
            assert "exceeds the 64-byte limit" in payload["error"]
            # the typed client surfaces the refusal as a protocol error
            with pytest.raises(ProtocolError, match="64-byte limit"):
                client.submit(_req())
            # undersized requests still work: the daemon is not poisoned
            assert client.healthz()["status"] == "ok"
    finally:
        d.stop(drain_timeout=10.0)


def test_max_body_bytes_validates():
    with pytest.raises(ValueError, match="max_body_bytes"):
        ServeDaemon(port=0, max_body_bytes=0)


def test_no_daemon_is_server_unavailable(registry):
    with socket.socket() as s:                 # a port nothing listens on
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    client = ServeClient("127.0.0.1", port, timeout=2.0)
    assert not client.ping()
    with pytest.raises(ServerUnavailable):
        client.submit(_req())


def test_wait_ready_probes_first_then_backs_off(monkeypatch):
    import repro.serve.client as client_mod

    slept: list[float] = []
    monkeypatch.setattr(client_mod.time, "sleep", slept.append)

    class _Up:
        def __init__(self, down_probes):
            self.down_probes = down_probes
            self.probes = 0

        def ping(self):
            self.probes += 1
            return self.probes > self.down_probes

    assert wait_ready(_Up(0), timeout=0.0)    # first probe, no sleep
    assert slept == []
    client = _Up(12)
    assert wait_ready(client, timeout=60.0)
    assert client.probes == 13
    assert slept[:3] == pytest.approx([0.02, 0.032, 0.0512])
    assert slept[-3:] == [1.0, 1.0, 1.0]      # capped at 1 s
    assert not wait_ready(_Up(99), timeout=0.0)


def test_from_address_parses_and_validates():
    client = ServeClient.from_address("localhost:9000")
    assert (client.host, client.port) == ("localhost", 9000)
    assert ServeClient.from_address(":9000").host == "127.0.0.1"
    with pytest.raises(ServerUnavailable, match="malformed"):
        ServeClient.from_address("no-port-here")


# -- kept-alive connections -------------------------------------------------

def _count_accepts(monkeypatch, d):
    """Record every connection the daemon accepts from now on."""
    accepted = []
    process_request = d._httpd.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    monkeypatch.setattr(d._httpd, "process_request", counting)
    return accepted


def test_one_thread_reuses_one_connection(daemon, monkeypatch):
    d, _ = daemon
    accepted = _count_accepts(monkeypatch, d)
    with ServeClient("127.0.0.1", d.port, timeout=60.0) as client:
        assert client.submit(_req()).served == "computed"
        assert client.submit(_req()).served == "cached"
        assert client.submit(_req(kind="compile")).ok
        assert client.stats()["counts"]["requests"] == 3
        assert client.healthz()["status"] == "ok"
        assert len(client._idle) == 1
    assert client._idle == []                  # closed on leaving the block
    assert len(accepted) == 1


def test_old_client_reconnects_once_after_restart(registry, span_tracer,
                                                  monkeypatch):
    d = ServeDaemon(port=0).start()
    client = ServeClient("127.0.0.1", d.port, timeout=30.0)
    assert wait_ready(client, timeout=15.0)    # leaves a connection idle
    assert d.stop(drain_timeout=10.0)
    restarted = ServeDaemon(port=d.port).start()
    try:
        accepted = _count_accepts(monkeypatch, restarted)
        assert client.healthz()["status"] == "ok"
        assert client.submit(_req()).ok
        assert len(accepted) == 1
    finally:
        client.close()
        restarted.stop(drain_timeout=10.0)


def test_idle_connection_is_unavailable_after_stop(daemon):
    d, _ = daemon
    other = ServeClient("127.0.0.1", d.port, timeout=10.0)
    assert other.healthz()["status"] == "ok"   # then idles
    assert d.stop(drain_timeout=10.0)
    # a handler left on the idle connection would answer "draining"
    with pytest.raises(ServerUnavailable):
        other.healthz()
    assert not other.ping()


def _post(path, body=b""):
    return (f"POST {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _exchange(sock, request):
    sock.sendall(request)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp, resp.read()


def _closed_by_peer(sock):
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:
        return True


@pytest.mark.parametrize("request_bytes, status, error", [
    (_post("/nope", b"{}"), 404, "unknown path '/nope'"),
    (_post("/submit", b"{" * 100), 413, "exceeds the 64-byte limit"),
    (b"POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: ten\r\n\r\n"
     b"{}", 400, "malformed Content-Length"),
    (b"PUT /submit HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{}",
     501, "Unsupported method ('PUT')"),
    (b"GARBAGE\r\n\r\n", 400, "Bad request syntax ('GARBAGE')"),
], ids=["unknown-path", "oversized", "malformed-length", "unsupported-method",
        "garbage-request-line"])
def test_client_errors_close_kept_alive_connections(registry, span_tracer,
                                                    request_bytes, status,
                                                    error):
    """Each of these may leave request bytes unread: parsed as the next
    request, they would answer garbage, so the daemon closes instead.
    Errors the HTTP layer answers before any route runs carry a status
    line and the JSON error envelope too."""
    d = ServeDaemon(port=0, max_body_bytes=64).start()
    try:
        with socket.create_connection(("127.0.0.1", d.port),
                                      timeout=10.0) as sock:
            resp, _ = _exchange(sock,
                                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert resp.status == 200 and not resp.will_close
            resp, body = _exchange(sock, request_bytes)
            assert resp.status == status
            assert resp.getheader("Content-Type") == "application/json"
            assert resp.getheader("Connection") == "close"
            payload = json.loads(body)
            assert set(payload) == {"protocol_version", "status", "error"}
            assert payload["status"] == "error"
            assert error in payload["error"]
            assert _closed_by_peer(sock)
        with ServeClient("127.0.0.1", d.port, timeout=10.0) as client:
            assert client.healthz()["status"] == "ok"
    finally:
        d.stop(drain_timeout=10.0)


def test_stop_on_an_idle_daemon_is_quick(registry, span_tracer):
    """The listener checks for a stop request often, so stopping does not
    wait out a long poll."""
    d = ServeDaemon(port=0).start()
    with ServeClient("127.0.0.1", d.port, timeout=10.0) as client:
        assert wait_ready(client, timeout=15.0)
    start = time.perf_counter()
    assert d.stop(drain_timeout=10.0)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("path, expected", [
    ("/healthz", 200), ("/submit", 503), ("/shutdown", 200)])
def test_responses_while_draining_end_the_connection(daemon, path, expected):
    """The daemon takes no further requests once it drains, so it does
    not leave their connections open; ``/shutdown`` starts the drain."""
    d, _ = daemon
    if path != "/shutdown":
        d.broker.begin_drain()
    request = {"/healthz": b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
               "/submit": _post("/submit", json.dumps(
                   _req().to_dict()).encode()),
               "/shutdown": _post("/shutdown")}[path]
    with socket.create_connection(("127.0.0.1", d.port),
                                  timeout=10.0) as sock:
        resp, _ = _exchange(sock, request)
        assert resp.status == expected
        assert resp.getheader("Connection") == "close"
        assert _closed_by_peer(sock)


def test_threads_sharing_a_client_get_a_connection_each(daemon, monkeypatch):
    """Eight threads (more than cores) submit one request four times
    each through one client, with thread switches forced often: one
    computation, byte-identical bodies, never two threads on one
    connection, and at most one connection per thread."""
    d, _ = daemon
    accepted = _count_accepts(monkeypatch, d)
    barrier = threading.Barrier(8, timeout=30.0)
    outcomes = [[] for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServeClient("127.0.0.1", d.port, timeout=60.0) as client:
            def fire(i):
                barrier.wait()
                for _ in range(4):
                    outcomes[i].append(client.submit(_req()))

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
            stats = client.stats()
    finally:
        sys.setswitchinterval(interval)
    flat = [o for per_thread in outcomes for o in per_thread]
    assert len(flat) == 32 and all(o.ok for o in flat)
    assert len({o.body for o in flat}) == 1
    assert [o.served for o in flat].count("computed") == 1
    assert stats["counts"]["completed"] == 1
    assert stats["session"]["compiles"] == 1
    assert 1 <= len(accepted) <= 8


def test_timeouts_are_not_retried(daemon, monkeypatch):
    d, _ = daemon
    accepted = _count_accepts(monkeypatch, d)
    release = threading.Event()
    calls = []
    stats = d.broker.stats

    def slow_stats():
        calls.append(1)
        release.wait(10.0)
        return stats()

    monkeypatch.setattr(d.broker, "stats", slow_stats)
    client = ServeClient("127.0.0.1", d.port, timeout=1.0)
    try:
        assert client.healthz()["status"] == "ok"   # a connection to reuse
        with pytest.raises(ServerUnavailable, match="timed out"):
            client.stats()
    finally:
        release.set()
        client.close()
    assert len(calls) == 1
    assert len(accepted) == 1


# -- serve-vs-direct equivalence ---------------------------------------------

@contextlib.contextmanager
def _fresh_obs():
    registry = MetricsRegistry(enabled=True)
    tracer = SpanTracer(enabled=True, detail=True)
    prev_r = set_registry(registry)
    prev_t = set_span_tracer(tracer)
    try:
        yield registry, tracer
    finally:
        set_registry(prev_r)
        set_span_tracer(prev_t)


def _observable(totals):
    """Registry totals minus serve plumbing: ``serve.*`` only exists on
    the daemon side, ``cache.*`` aggregates the broker's response cache
    on top of the session cache."""
    return {k: v for k, v in totals.items()
            if not k.startswith(("serve.", "cache."))}


def test_serve_and_direct_execution_are_equivalent():
    """The daemon must answer exactly what a local Session computes:
    byte-identical payloads, identical session-cache behaviour,
    identical metric totals, and an identical normalized span tree
    under the ``serve.request`` root."""
    req = _req()

    with _fresh_obs() as (reg_direct, tr_direct):
        direct_session = Session(jobs=1)
        result = execute_request(direct_session, req)
        direct_bytes = response_bytes(ok_response(req, result))
        direct_tree = span_tree(tr_direct.spans, normalize=True)
        direct_totals = _observable(reg_direct.deterministic_totals())
        direct_cache = direct_session.cache.stats_dict()

    with _fresh_obs() as (reg_serve, tr_serve):
        serve_session = Session(jobs=1)
        from repro.serve import RequestBroker
        daemon = ServeDaemon(
            port=0, broker=RequestBroker(session=serve_session)).start()
        try:
            with ServeClient("127.0.0.1", daemon.port,
                             timeout=60.0) as client:
                assert wait_ready(client, timeout=15.0)
                outcome = client.submit(req)
        finally:
            daemon.stop(drain_timeout=10.0)
        serve_tree = span_tree(tr_serve.spans, normalize=True)
        serve_totals = _observable(reg_serve.deterministic_totals())
        serve_cache = serve_session.cache.stats_dict()

    assert outcome.body == direct_bytes                    # byte-identical
    assert serve_cache == direct_cache                     # same cache walk
    assert serve_totals == direct_totals                   # same metrics

    roots = [n for n in serve_tree if n["name"] == "serve.request"]
    assert len(roots) == 1
    assert roots[0]["attrs"]["outcome"] == "ok"
    assert roots[0]["children"] == direct_tree             # same span tree
