"""The serve wire protocol: JSON requests, responses, and exit codes.

One :class:`ServeRequest` names a unit of compiler work — ``compile`` a
DSL loop, or ``simulate`` one of its scheduled kernels on the SpMT
machine — plus the knobs that determine the result (cores, unroll,
iterations, seed, policy).  Everything that shapes the *result* feeds
the request's :meth:`~ServeRequest.fingerprint` (which also embeds
``repro.__version__``), so two structurally identical requests hash
equal and the broker can coalesce them onto one in-flight computation;
quality-of-service fields (``deadline_seconds``) deliberately do *not*,
because they change when a caller gives up, never what is computed.

Responses are plain dicts rendered with :func:`response_bytes`
(canonical, sorted-key JSON), so every waiter of a coalesced job — and a
warm rerun served from the result cache — receives byte-identical bytes.
``request_id`` is a deterministic function of the request (a fingerprint
prefix), not of arrival order, so resubmitting a request is
idempotent.

The result payload builders (:func:`compile_result_dict`,
:func:`simulate_result_dict`, :func:`simstats_to_dict`) define the
response schema in one place: the broker's execution path and the
serve-vs-direct equivalence tests both render through them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping

from ..errors import ProtocolError

__all__ = [
    "EXIT_ERROR",
    "EXIT_OK",
    "EXIT_REJECTED",
    "EXIT_UNAVAILABLE",
    "KINDS",
    "PROTOCOL_VERSION",
    "REJECT_REASONS",
    "ServeRequest",
    "compile_result_dict",
    "error_response",
    "ok_response",
    "rejected_response",
    "response_bytes",
    "simstats_to_dict",
    "simulate_result_dict",
]

#: Bumped on incompatible request/response schema changes; every
#: response carries it.
PROTOCOL_VERSION = 1

#: Request kinds the broker executes.
KINDS = ("compile", "simulate")

#: Admission-control rejection reasons (``response["reason"]``).
REJECT_REASONS = ("queue_full", "deadline", "draining")

#: Scheduling policies a ``simulate`` request may name (the compiled
#: artifact carries one kernel per policy).
POLICIES = ("sms", "tms")

# -- typed exit codes for ``tms-experiments submit`` -------------------------
# (3 is taken by ``report --check``'s EXIT_REGRESSION.)
EXIT_OK = 0            #: request accepted and answered
EXIT_ERROR = 1         #: server executed the request and it failed
EXIT_REJECTED = 4      #: admission control refused the request
EXIT_UNAVAILABLE = 5   #: no server reachable at the given address


@dataclass(frozen=True)
class ServeRequest:
    """One unit of compile/simulate work, as submitted over the wire."""

    kind: str                            #: ``compile`` or ``simulate``
    source: str                          #: DSL loop text (:mod:`repro.ir.dsl`)
    cores: int = 4                       #: SpMT cores (``ArchConfig.with_cores``)
    unroll: int = 1                      #: unroll factor (thread granularity)
    iterations: int = 500                #: simulated trip count (simulate)
    seed: int = 0xACE5                   #: simulator seed (simulate)
    policy: str = "tms"                  #: kernel to simulate (sms / tms)
    #: wall-clock budget for waiting: expiry before the job starts (or
    #: while coalesced onto another's job) is a typed ``deadline``
    #: rejection; a started job runs to completion.  Not part of the
    #: fingerprint.
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ProtocolError(
                f"unknown request kind {self.kind!r}; expected one of "
                f"{', '.join(KINDS)}")
        if not isinstance(self.source, str) or not self.source.strip():
            raise ProtocolError("request 'source' must be non-empty DSL text")
        for name in ("cores", "unroll", "iterations", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(f"request {name!r} must be an integer, "
                                    f"got {type(value).__name__}")
        if self.cores < 1:
            raise ProtocolError(f"request 'cores' must be >= 1, "
                                f"got {self.cores}")
        if self.unroll < 1:
            raise ProtocolError(f"request 'unroll' must be >= 1, "
                                f"got {self.unroll}")
        if self.iterations < 1:
            raise ProtocolError(f"request 'iterations' must be >= 1, "
                                f"got {self.iterations}")
        if self.policy not in POLICIES:
            raise ProtocolError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{', '.join(POLICIES)}")
        if self.deadline_seconds is not None:
            if not isinstance(self.deadline_seconds, (int, float)) \
                    or isinstance(self.deadline_seconds, bool) \
                    or self.deadline_seconds <= 0:
                raise ProtocolError(
                    f"request 'deadline_seconds' must be a positive number "
                    f"or null, got {self.deadline_seconds!r}")

    # -- identity ------------------------------------------------------------

    def work_payload(self) -> dict[str, Any]:
        """The fields that determine the result (QoS knobs excluded;
        simulation knobs excluded for ``compile`` requests, whose result
        they cannot change — so two compiles differing only in
        ``iterations`` still coalesce)."""
        payload: dict[str, Any] = {
            "kind": self.kind,
            "source": self.source,
            "cores": self.cores,
            "unroll": self.unroll,
        }
        if self.kind == "simulate":
            payload.update(iterations=self.iterations, seed=self.seed,
                           policy=self.policy)
        return payload

    def fingerprint(self) -> str:
        """Stable identity of the *work* this request names; identical
        concurrent requests coalesce on it.  Embeds the library version
        so responses are never shared across builds."""
        from .. import __version__
        from ..session.fingerprint import fingerprint

        return fingerprint({
            "version": __version__,
            "kind": "serve-request",
            "request": self.work_payload(),
        })

    def request_id(self) -> str:
        """Deterministic per-request id (a fingerprint prefix): the same
        request submitted twice gets the same id."""
        return f"r-{self.fingerprint()[:16]}"

    # -- wire format ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {f.name: getattr(self, f.name)
                             for f in fields(self)}
        if d["deadline_seconds"] is None:
            del d["deadline_seconds"]
        return d

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeRequest":
        """Parse and validate a wire payload; raises
        :class:`~repro.errors.ProtocolError` on anything malformed."""
        if not isinstance(data, Mapping):
            raise ProtocolError(
                f"request body must be a JSON object, got "
                f"{type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {', '.join(unknown)}")
        if "kind" not in data:
            raise ProtocolError("request is missing 'kind'")
        if "source" not in data:
            raise ProtocolError("request is missing 'source'")
        return cls(**{k: data[k] for k in data})


# -- responses ---------------------------------------------------------------

def _base_response(request: ServeRequest, status: str) -> dict[str, Any]:
    return {
        "protocol_version": PROTOCOL_VERSION,
        "status": status,
        "request_id": request.request_id(),
        "fingerprint": request.fingerprint(),
        "kind": request.kind,
    }


def ok_response(request: ServeRequest, result: dict[str, Any]
                ) -> dict[str, Any]:
    """A completed request's response envelope."""
    response = _base_response(request, "ok")
    response["result"] = result
    return response


def rejected_response(request: ServeRequest, reason: str) -> dict[str, Any]:
    """An admission-control rejection (``reason`` in
    :data:`REJECT_REASONS`)."""
    if reason not in REJECT_REASONS:
        raise ProtocolError(f"unknown rejection reason {reason!r}")
    response = _base_response(request, "rejected")
    response["reason"] = reason
    return response


def error_response(request: ServeRequest, message: str) -> dict[str, Any]:
    """The request executed and failed (a scheduling error, malformed
    DSL, ...)."""
    response = _base_response(request, "error")
    response["error"] = message
    return response


def response_bytes(response: Mapping[str, Any]) -> bytes:
    """Canonical wire rendering: sorted keys, no whitespace, UTF-8 —
    coalesced waiters and cache hits all receive these exact bytes."""
    return json.dumps(response, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# -- result payload builders -------------------------------------------------

def simstats_to_dict(stats: Any) -> dict[str, Any]:
    """A :class:`~repro.spmt.stats.SimStats` as deterministic JSON-able
    data (per-thread trace records excluded)."""
    return {
        "iterations": stats.iterations,
        "ncore": stats.ncore,
        "total_cycles": stats.total_cycles,
        "sync_stall_cycles": stats.sync_stall_cycles,
        "send_recv_pairs": stats.send_recv_pairs,
        "misspeculations": stats.misspeculations,
        "squashed_threads": stats.squashed_threads,
        "invalidation_cycles": stats.invalidation_cycles,
        "wasted_execution_cycles": stats.wasted_execution_cycles,
        "spawn_cycles": stats.spawn_cycles,
        "commit_cycles": stats.commit_cycles,
        "reg_comm_latency": stats.reg_comm_latency,
        "cycles_per_iteration": stats.cycles_per_iteration,
        "misspec_frequency": stats.misspec_frequency,
        "communication_overhead": stats.communication_overhead,
    }


def _alg_dict(alg: Any) -> dict[str, Any]:
    return {
        "ii": alg.ii,
        "stages": alg.schedule.num_stages,
        "c_delay": alg.c_delay,
        "max_live": alg.max_live,
        "kernel": alg.schedule.kernel_listing(),
    }


def compile_result_dict(compiled: Any) -> dict[str, Any]:
    """The ``compile`` result payload for one
    :class:`~repro.experiments.pipeline.CompiledLoop` (schedules
    rendered as kernel listings, so equivalence is byte-checkable)."""
    return {
        "kind": "compile",
        "loop": compiled.name,
        "n_inst": compiled.n_inst,
        "mii": compiled.mii,
        "ldp": compiled.ldp,
        "n_scc": compiled.n_scc,
        "algorithms": {"sms": _alg_dict(compiled.sms),
                       "tms": _alg_dict(compiled.tms)},
    }


def simulate_result_dict(compiled: Any, policy: str, alg: Any,
                         stats: Any) -> dict[str, Any]:
    """The ``simulate`` result payload: the simulated kernel's identity
    plus its :class:`~repro.spmt.stats.SimStats`."""
    return {
        "kind": "simulate",
        "loop": compiled.name,
        "policy": policy,
        "ii": alg.ii,
        "c_delay": alg.c_delay,
        "kernel": alg.schedule.kernel_listing(),
        "stats": simstats_to_dict(stats),
    }
