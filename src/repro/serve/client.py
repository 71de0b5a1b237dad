"""Client library for the serve daemon (stdlib ``http.client`` only).

:class:`ServeClient` speaks the JSON protocol of
:mod:`repro.serve.protocol` against a running daemon.  Connection
errors become :class:`~repro.errors.ServerUnavailable`; admission
rejections become :class:`~repro.errors.AdmissionRejected` (or, with
``raise_on_reject=False``, a normal :class:`SubmitOutcome` the caller
inspects).  One connection is opened per call — the daemon's threading
server is connection-per-request, and serve requests are long relative
to TCP setup.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from dataclasses import dataclass
from typing import Any, Mapping

from ..errors import AdmissionRejected, ProtocolError, ServerUnavailable
from .protocol import ServeRequest

__all__ = ["ServeClient", "SubmitOutcome", "wait_ready"]


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
    """A thin, connection-per-call client for one daemon address."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8437, *,
                 timeout: float | None = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

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

    # -- transport -----------------------------------------------------------

    def _round_trip(self, method: str, path: str,
                    body: bytes | None = None
                    ) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
        except (ConnectionError, socket.timeout, socket.gaierror,
                http.client.HTTPException, OSError) as exc:
            raise ServerUnavailable(
                f"no serve daemon reachable at {self.host}:{self.port} "
                f"({type(exc).__name__}: {exc})") from exc
        finally:
            conn.close()
        return resp.status, {k.lower(): v for k, v in
                             resp.getheaders()}, payload

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
