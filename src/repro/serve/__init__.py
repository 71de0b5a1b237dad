"""Long-running compile/simulate service (``tms-experiments serve``).

A zero-dependency daemon over one long-lived :class:`~repro.session.
session.Session`: identical concurrent requests coalesce onto one
in-flight computation, the session's artifact cache and a response
cache answer repeat work without recompiling, and bounded admission
control turns overload into typed rejections instead of queue
collapse.  See ``docs/serving.md``.

Layers (each importable alone):

- :mod:`~repro.serve.protocol` — wire schema, fingerprints, exit codes
- :mod:`~repro.serve.broker` — coalescing, admission control, execution
- :mod:`~repro.serve.server` — stdlib HTTP front end + signal handling
- :mod:`~repro.serve.client` — client library (``http.client``)
- :mod:`~repro.serve.cli` — ``serve`` / ``submit`` subcommands
"""

from .broker import RequestBroker, execute_request
from .client import ServeClient, SubmitOutcome, wait_ready
from .protocol import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_UNAVAILABLE,
    PROTOCOL_VERSION,
    ServeRequest,
    response_bytes,
)
from .server import ServeDaemon

__all__ = [
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_REJECTED",
    "EXIT_UNAVAILABLE",
    "PROTOCOL_VERSION",
    "RequestBroker",
    "ServeClient",
    "ServeDaemon",
    "ServeRequest",
    "SubmitOutcome",
    "execute_request",
    "response_bytes",
    "wait_ready",
]
