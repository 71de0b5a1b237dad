"""Stable content fingerprints for loops, DDGs and configurations.

A fingerprint is the SHA-256 of a canonical JSON rendering, so two
structurally identical objects built independently — the same DSL parsed
twice, the same loop assembled by hand — hash equal, while any change to
an instruction, an operand, a dependence or a config field produces a
different key.  Loops reuse :func:`repro.ir.serialize.loop_to_dict`
(the library's stable on-disk format); configs enumerate their dataclass
fields; DDGs serialise their node/edge structure (covering graphs built
without concrete IR, e.g. the motivating example's hand-built DDG).

:func:`artifact_key` combines the pieces that determine a
:class:`~repro.experiments.pipeline.CompiledLoop` into one cache key and
includes the library version and :data:`ARTIFACT_FORMAT`, so artifacts
persisted to disk by an older build are never served by a newer one.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any

from ..config import ArchConfig, SchedulerConfig
from ..graph.ddg import DDG
from ..ir.loop import Loop
from ..ir.serialize import loop_to_dict
from ..machine.latency import LatencyModel
from ..machine.resources import ResourceModel

__all__ = ["ARTIFACT_FORMAT", "artifact_key", "fingerprint",
           "fingerprint_payload"]

#: Pickle layout of a compile artifact, embedded in :func:`artifact_key`.
#: Bump it whenever a class a ``CompiledLoop`` holds changes how it
#: pickles its state, or a stored value changes meaning: an entry written
#: under the old format may load without error into wrong values.
#: 2: ``DDGNode`` and ``Dependence`` became slotted (they pickled a
#: ``__dict__`` before, which a slotted dataclass reads as its field
#: names).  3: a TMS schedule's ``meta["p_m"]`` follows the
#: ancestor-refined Definition 3 (the row-based value before).
ARTIFACT_FORMAT = 3


def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-able structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, Loop):
        return {"__loop__": loop_to_dict(obj)}
    if isinstance(obj, DDG):
        return {"__ddg__": _ddg_payload(obj)}
    if isinstance(obj, ResourceModel):
        return {
            "__resources__": {
                "issue_width": obj.issue_width,
                "units": {fu.value: [spec.count, spec.occupancy]
                          for fu, spec in sorted(obj.units.items(),
                                                 key=lambda kv: kv[0].value)},
            }
        }
    if isinstance(obj, LatencyModel):
        return {
            "__latency__": {op.value: lat
                            for op, lat in sorted(obj._lat.items(),
                                                  key=lambda kv: kv[0].value)}
        }
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {name: _canonical(getattr(obj, name))
                       for name in sorted(obj.__dataclass_fields__)},
        }
    if isinstance(obj, dict):
        return {str(k): _canonical(v)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(json.dumps(_canonical(v), sort_keys=True) for v in obj)
    raise TypeError(f"cannot fingerprint object of type {type(obj).__name__}")


def _ddg_payload(ddg: DDG) -> dict:
    """Structural identity of a DDG: nodes with assumed latencies plus
    every dependence edge.  The embedded loop (when present) is included
    so a DDG carries the same information a (loop, latency) pair does."""
    return {
        "name": ddg.name,
        "nodes": [[n.name, n.opcode.value, n.latency, n.position]
                  for n in ddg.nodes],
        "edges": sorted(
            [e.src, e.dst, e.kind.value, e.dtype.value, e.distance,
             e.delay, e.probability]
            for e in ddg.edges),
        "loop": loop_to_dict(ddg.loop) if ddg.loop is not None else None,
    }


def fingerprint_payload(obj: Any) -> str:
    """Canonical JSON text of ``obj`` (the pre-image of its fingerprint)."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical serialisation."""
    return hashlib.sha256(fingerprint_payload(obj).encode("utf-8")).hexdigest()


def artifact_key(source: Loop | DDG,
                 arch: ArchConfig,
                 resources: ResourceModel | None = None,
                 config: SchedulerConfig | None = None,
                 latency: LatencyModel | None = None) -> str:
    """Cache key of the compile artifact ``compile_loop_uncached(source,
    arch, resources, config, latency)`` would produce.

    Callers should resolve ``None`` components to their concrete
    defaults first (``Session.compile`` does), so an implicit default
    and an explicitly constructed equal default map to the same key.
    """
    from .. import __version__

    return fingerprint({
        "version": __version__,
        "format": ARTIFACT_FORMAT,
        "source": source,
        "arch": arch,
        "resources": resources,
        "config": config,
        "latency": latency,
    })
