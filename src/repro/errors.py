"""Exception hierarchy for the TMS reproduction library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Malformed loop IR (bad operands, undefined registers, ...)."""


class DSLParseError(IRError):
    """Syntax or semantic error while parsing the textual loop DSL."""

    def __init__(self, message: str, line_no: int | None = None, line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if line is not None:
                message = f"{message}\n    {line.strip()}"
        super().__init__(message)


class DDGError(ReproError):
    """Inconsistent data-dependence graph (negative-latency cycles, ...)."""


class MachineError(ReproError):
    """Invalid machine/resource model configuration or usage."""


class SchedulingError(ReproError):
    """A modulo scheduler could not produce a valid schedule."""


class ScheduleValidationError(SchedulingError):
    """A produced schedule violates a dependence or resource constraint."""


class SimulationError(ReproError):
    """The SpMT simulator reached an inconsistent state."""


class InvariantViolation(ReproError):
    """A trace invariant sanitizer check failed: the recorded event stream
    (or its :class:`~repro.spmt.stats.SimStats`) contradicts the SpMT
    execution model (see :mod:`repro.faults.sanitizer`)."""


class FaultPlanError(ReproError):
    """A declarative fault plan (:mod:`repro.faults.plan`) is malformed."""


class WorkloadError(ReproError):
    """A workload generator was given unsatisfiable parameters."""


class ServeError(ReproError):
    """Base class for :mod:`repro.serve` failures (daemon, broker,
    client, protocol)."""


class ProtocolError(ServeError):
    """A serve request or response violates the JSON protocol
    (:mod:`repro.serve.protocol`): unknown kind, missing field, or a
    mistyped value."""


class AdmissionRejected(ServeError):
    """The serve broker refused a request before (or instead of)
    executing it.  ``reason`` is one of the
    :data:`repro.serve.protocol.REJECT_REASONS`: ``queue_full`` (bounded
    queue depth exceeded), ``deadline`` (the per-request deadline
    expired while the request waited), or ``draining`` (the daemon is
    shutting down)."""

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or f"request rejected: {reason}")


class ServerUnavailable(ServeError):
    """The serve client could not reach (or lost) the daemon."""

