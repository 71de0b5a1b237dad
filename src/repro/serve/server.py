"""The serve daemon: a stdlib HTTP front end over the request broker.

``ServeDaemon`` wraps :class:`~repro.serve.broker.RequestBroker` in a
:class:`http.server.ThreadingHTTPServer` (one handler thread per
connection; the broker coalesces and orders the actual work), speaking
the JSON protocol of :mod:`repro.serve.protocol`:

``POST /submit``
    Body: a :class:`~repro.serve.protocol.ServeRequest` payload.
    Answer: the canonical response bytes — byte-identical for every
    waiter of a coalesced job and for warm cache hits.  The
    ``X-Repro-Served`` header says how the response was produced
    (``computed`` / ``coalesced`` / ``cached`` / ``rejected``) without
    perturbing the body.
``GET /stats``
    The broker's live tallies, both cache tiers and session counters.
``GET /healthz``
    ``{"status": "ok"|"draining", "protocol_version": N}`` — the
    readiness probe for clients and CI.
``POST /shutdown``
    Graceful drain-and-stop, the in-band twin of SIGTERM.

Connections are HTTP/1.1 and stay open between requests.  Each
response leaves in one send (status line, headers and body together)
with Nagle's algorithm off: a response written in two sends would hold
its second part until the client's delayed ACK of the first, some 40 ms
on a kept-alive connection.  Every error reply is the JSON error
envelope, those the HTTP layer makes before any route runs (501, 505, a
malformed request line) included.  A response carries
``Connection: close`` and ends its connection when it is an error reply
(the request body may be left unread, and its bytes must not be parsed
as the next request) or when the broker is draining (the daemon takes
no further requests).

Shutdown discipline: SIGTERM/SIGINT (and ``/shutdown``) first flip the
broker to *draining* — new submissions get typed ``draining``
rejections while in-flight jobs finish — then stop the HTTP listener
and end the kept-alive connections still open.  The actual teardown
runs on a separate thread because ``HTTPServer.shutdown()`` deadlocks
when called from the ``serve_forever`` thread itself.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..errors import ProtocolError
from .broker import RequestBroker
from .protocol import PROTOCOL_VERSION, response_bytes

__all__ = ["MAX_BODY_BYTES", "ServeDaemon"]

#: request body cap — a DSL loop is tiny; anything larger is malformed.
#: A larger declared body is refused with a typed HTTP 413
#: (``X-Repro-Served: rejected``) before any body byte is read.
MAX_BODY_BYTES = 1 << 20

#: seconds a stopping daemon waits for its connection handlers to close
#: their connections once it has stopped reading from them
_CLOSE_TIMEOUT = 5.0

#: seconds between the listener's checks for a stop request; a stop
#: waits up to this long for ``serve_forever`` to return
_POLL_INTERVAL = 0.05


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests into the daemon's broker."""

    # instances are created per-connection by the server; the daemon
    # hangs itself off the server object.
    server: "_Server"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    @property
    def daemon(self) -> "ServeDaemon":
        return self.server.daemon

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """No per-request log lines (the base class writes one to stderr
        per request)."""

    def _send_json(self, status: int, payload: dict[str, Any],
                   headers: dict[str, str] | None = None, *,
                   close: bool = False) -> None:
        """Send one response in one write; a 4xx, a response while
        draining and ``close=True`` end the connection after it."""
        body = response_bytes(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if close or 400 <= status < 500 or self.daemon.broker.draining:
            self.send_header("Connection", "close")
        # end_headers() would send the headers on their own: queue the
        # blank line and the body behind them and flush all at once
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Every error reply, the ones ``BaseHTTPRequestHandler`` makes
        itself included (501 for an unsupported method, 400 for a
        malformed request line, 414, 431, 505): the JSON error envelope,
        ending the connection."""
        # a request line that failed to parse leaves the HTTP/0.9
        # default, under which no status line or header is written
        self.request_version = self.protocol_version
        self._send_json(code, {"protocol_version": PROTOCOL_VERSION,
                               "status": "error",
                               "error": message or self.responses[code][0]},
                        close=True)

    def _read_body(self) -> bytes | None:
        length = self.headers.get("Content-Length")
        try:
            n = int(length) if length is not None else 0
        except ValueError:
            self.send_error(400, "malformed Content-Length")
            return None
        if n <= 0:
            self.send_error(400, "request body required")
            return None
        if n > MAX_BODY_BYTES:
            # refused before a byte of the body is read: an oversized
            # declared length never ties up handler memory
            self._send_json(
                413, {"protocol_version": PROTOCOL_VERSION,
                      "status": "error",
                      "error": f"request body of {n} bytes exceeds the "
                               f"{MAX_BODY_BYTES}-byte limit"},
                {"X-Repro-Served": "rejected"})
            return None
        return self.rfile.read(n)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            status = "draining" if self.daemon.broker.draining else "ok"
            self._send_json(200, {"status": status,
                                  "protocol_version": PROTOCOL_VERSION})
        elif path == "/stats":
            self._send_json(200, self.daemon.broker.stats())
        else:
            self.send_error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path == "/submit":
            self._do_submit()
        elif path == "/shutdown":
            self._send_json(200, {"status": "stopping",
                                  "protocol_version": PROTOCOL_VERSION},
                            close=True)
            self.daemon.request_stop("shutdown request")
        else:
            self.send_error(404, f"unknown path {path!r}")

    def _do_submit(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.send_error(400, f"request body is not valid JSON: {exc}")
            return
        try:
            response, served = self.daemon.broker.submit(payload)
        except ProtocolError as exc:
            self.send_error(400, str(exc))
            return
        status = 200
        if response["status"] == "rejected":
            # backpressure maps onto 503 so generic clients retry later
            status = 503
        self._send_json(status, response, {"X-Repro-Served": served})


class _Server(ThreadingHTTPServer):
    """The threading HTTP server, tracking its open connections so a
    stopping daemon can end the kept-alive ones."""

    daemon_threads = True
    allow_reuse_address = True
    daemon: "ServeDaemon"

    def __init__(self, address: tuple[str, int],
                 handler: type[_Handler]) -> None:
        super().__init__(address, handler)
        self._open: set[socket.socket] = set()
        self._open_changed = threading.Condition()

    def process_request(self, request: socket.socket,
                        client_address: Any) -> None:
        with self._open_changed:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        super().shutdown_request(request)
        with self._open_changed:
            self._open.discard(request)
            self._open_changed.notify_all()

    def end_connections(self, timeout: float) -> None:
        """Stop reading from every open connection, then wait up to
        ``timeout`` seconds for their handlers to close them.  ``SHUT_RD``
        leaves the sending side alone: a handler still writing its last
        response finishes it, then reads end-of-stream and closes the
        connection."""
        with self._open_changed:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:      # closed meanwhile
                    pass
            self._open_changed.wait_for(lambda: not self._open, timeout)


class ServeDaemon:
    """One serve daemon: broker + HTTP listener + signal handling.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (``self.port`` holds
        the real one after construction — handy for tests).
    broker:
        A pre-built broker, else a fresh one.
    install_signal_handlers:
        Wire SIGTERM/SIGINT to graceful drain (main thread only).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 broker: RequestBroker | None = None,
                 install_signal_handlers: bool = False) -> None:
        self.broker = broker if broker is not None else RequestBroker()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.daemon = self
        self.host, self.port = self._httpd.server_address[:2]
        self._serve_thread: threading.Thread | None = None
        self._stop_thread: threading.Thread | None = None
        self._stop_lock = threading.Lock()
        self._stopped = threading.Event()
        self.drained: bool | None = None
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                signal.signal(sig, self._on_signal)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _log(self, message: str) -> None:
        print(f"[serve] {message}", flush=True)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeDaemon":
        """Start the broker and the HTTP listener in the background."""
        self.broker.start()
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever, args=(_POLL_INTERVAL,),
            name="serve-http", daemon=True)
        self._serve_thread.start()
        return self

    def _on_signal(self, signum: int, frame: Any) -> None:
        self.request_stop(signal.Signals(signum).name)

    def request_stop(self, reason: str = "",
                     drain_timeout: float | None = 30.0) -> None:
        """Begin graceful shutdown (idempotent, safe from any thread):
        drain the broker, then stop the listener."""
        with self._stop_lock:
            if self._stop_thread is not None:
                return
            self.broker.begin_drain()
            if reason:
                self._log(f"stopping ({reason}); draining "
                          f"{self.broker.queue_depth()} in-flight job(s)")
            # shutdown() must not run on the serve_forever thread, and
            # signal handlers run on the main thread which may be
            # wait()ing — so teardown gets its own thread.
            self._stop_thread = threading.Thread(
                target=self._stop, args=(drain_timeout,),
                name="serve-stop", daemon=True)
            self._stop_thread.start()

    def _stop(self, drain_timeout: float | None) -> None:
        self.drained = self.broker.stop(drain=True, timeout=drain_timeout)
        self._httpd.shutdown()
        self._httpd.server_close()
        # idle kept-alive connections would otherwise keep their handler
        # threads answering after the daemon stopped
        self._httpd.end_connections(_CLOSE_TIMEOUT)
        self._stopped.set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until shutdown completes; returns whether it did."""
        return self._stopped.wait(timeout)

    def stop(self, drain_timeout: float | None = 30.0) -> bool:
        """Synchronous stop for tests and embedding: request shutdown
        and wait for it."""
        self.request_stop(drain_timeout=drain_timeout)
        self.wait()
        return bool(self.drained)
