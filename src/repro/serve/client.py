"""Client library for the serve daemon (stdlib ``http.client`` only).

:class:`ServeClient` speaks the JSON protocol of
:mod:`repro.serve.protocol` against a running daemon.  Connection
errors become :class:`~repro.errors.ServerUnavailable`; admission
rejections become :class:`~repro.errors.AdmissionRejected` (or, with
``raise_on_reject=False``, a normal :class:`SubmitOutcome` the caller
inspects).

Calls reuse kept-alive HTTP/1.1 connections.  A cached request costs
the daemon well under a millisecond, about what opening a TCP
connection and starting a handler thread for it costs, so a fresh
connection per call would double its latency.  The client keeps a stack
of idle connections, so each thread calling at once gets one of its
own.  A reused connection the daemon has since closed (it restarted, or
ended the connection with ``Connection: close``) fails before any
response byte arrives; such a call is retried once on a fresh
connection.  Every endpoint is idempotent, so the retry cannot do work
twice: ``/submit`` is keyed by the request's fingerprint, ``/healthz``
and ``/stats`` only read, and ``/shutdown`` repeats harmlessly.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import AdmissionRejected, ProtocolError, ServerUnavailable
from .protocol import ServeRequest

__all__ = ["ServeClient", "SubmitOutcome", "wait_ready"]

#: how a reused connection the daemon has closed fails before a response
#: byte arrives (``http.client.RemoteDisconnected`` is a
#: ``ConnectionResetError``); a timeout is never among them
_STALE = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class SubmitOutcome:
    """Everything one ``/submit`` round trip produced."""

    response: dict[str, Any]   #: decoded response envelope
    body: bytes                #: exact response bytes off the wire
    served: str                #: ``X-Repro-Served``: computed/coalesced/cached/rejected
    http_status: int

    @property
    def status(self) -> str:
        return self.response.get("status", "error")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def result(self) -> dict[str, Any] | None:
        return self.response.get("result")


class ServeClient:
    """A client for one daemon address over kept-alive connections.

    Safe to share between threads: each call takes an idle connection
    off the stack (or opens one) and puts it back once the response is
    read, unless the daemon closes it.  :meth:`close` (or leaving a
    ``with`` block) closes the idle connections; a later call opens a
    new one.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8437, *,
                 timeout: float | None = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    @classmethod
    def from_address(cls, address: str, *,
                     timeout: float | None = 300.0) -> "ServeClient":
        """Parse ``host:port`` (or bare ``:port`` / ``port``)."""
        host, _, port = address.rpartition(":")
        try:
            return cls(host or "127.0.0.1", int(port), timeout=timeout)
        except ValueError:
            raise ServerUnavailable(
                f"malformed server address {address!r}; expected host:port"
            ) from None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every idle connection."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- transport -----------------------------------------------------------

    def _round_trip(self, method: str, path: str,
                    body: bytes | None = None
                    ) -> tuple[int, dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        try:
            if conn is not None:
                try:
                    resp = self._send(conn, method, path, body, headers)
                except _STALE:
                    # closed by the daemon while idle: reconnect once
                    conn.close()
                    conn = None
            if conn is None:
                conn = http.client.HTTPConnection(self.host, self.port,
                                                  timeout=self.timeout)
                resp = self._send(conn, method, path, body, headers)
            payload = resp.read()
        except (ConnectionError, socket.timeout, socket.gaierror,
                http.client.HTTPException, OSError) as exc:
            if conn is not None:
                conn.close()
            raise ServerUnavailable(
                f"no serve daemon reachable at {self.host}:{self.port} "
                f"({type(exc).__name__}: {exc})") from exc
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, {k.lower(): v for k, v in
                             resp.getheaders()}, payload

    @staticmethod
    def _send(conn: http.client.HTTPConnection, method: str, path: str,
              body: bytes | None, headers: dict[str, str]
              ) -> http.client.HTTPResponse:
        """Send one request and read the response's status and headers."""
        conn.request(method, path, body=body, headers=headers)
        return conn.getresponse()

    def _json(self, status: int, body: bytes) -> dict[str, Any]:
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(
                f"server returned non-JSON body (HTTP {status}): "
                f"{body[:200]!r}") from exc
        if not isinstance(decoded, dict):
            raise ProtocolError(
                f"server returned non-object JSON (HTTP {status})")
        return decoded

    # -- API -----------------------------------------------------------------

    def submit(self, request: "ServeRequest | Mapping[str, Any]", *,
               raise_on_reject: bool = True) -> SubmitOutcome:
        """Submit one request and block for its response.

        Admission rejections raise :class:`AdmissionRejected` carrying
        the typed reason, unless ``raise_on_reject=False``; transport
        failures raise :class:`ServerUnavailable`.
        """
        if isinstance(request, ServeRequest):
            payload = request.to_dict()
        else:
            payload = dict(request)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        outcome = self._decode_submit(*self._round_trip("POST", "/submit",
                                                        body))
        if outcome.status == "rejected" and raise_on_reject:
            raise AdmissionRejected(outcome.response.get("reason",
                                                         "unknown"))
        return outcome

    def _decode_submit(self, status: int, headers: dict[str, str],
                       raw: bytes) -> SubmitOutcome:
        response = self._json(status, raw)
        if status in (400, 413):
            raise ProtocolError(response.get("error",
                                             f"bad request (HTTP {status})"))
        return SubmitOutcome(response=response, body=raw,
                             served=headers.get("x-repro-served",
                                                "unknown"),
                             http_status=status)

    def stats(self) -> dict[str, Any]:
        status, _, raw = self._round_trip("GET", "/stats")
        return self._json(status, raw)

    def healthz(self) -> dict[str, Any]:
        status, _, raw = self._round_trip("GET", "/healthz")
        return self._json(status, raw)

    def ping(self) -> bool:
        """Whether a daemon answers at the address."""
        try:
            return "status" in self.healthz()
        except ServerUnavailable:
            return False

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to drain and stop."""
        status, _, raw = self._round_trip("POST", "/shutdown")
        return self._json(status, raw)


def wait_ready(client: ServeClient, timeout: float = 30.0) -> bool:
    """Poll ``/healthz`` until the daemon answers (startup races in
    tests and CI); returns readiness within ``timeout``.

    The first probe runs at once; later ones back off exponentially
    (0.02 s, x1.6, capped at 1 s), quick enough not to penalise a fast
    start without spinning against a daemon that never comes up.
    """
    deadline = time.monotonic() + timeout
    delay = 0.02
    while not client.ping():
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        time.sleep(min(delay, remaining))
        delay = min(delay * 1.6, 1.0)
    return True
