"""Structured event tracing.

A :class:`Tracer` collects :class:`Event` records from the schedulers
(per-``(II, C_delay)`` TMS search candidates, per-node SMS/IMS
placements) and the simulator (spawn / recv-stall / violation / squash /
commit, one timeline per thread).  Tracing is off by default; hot paths
guard every emission with ``tracer.enabled`` so the disabled cost is one
attribute read.

Events are **deterministic**: they carry a monotonically increasing
sequence number plus *domain* timestamps (scheduler decision order,
simulated cycles) — never wall-clock time — so two runs with the same
seed produce byte-identical exports (:mod:`repro.obs.export`).

Instrumented code emits into the current telemetry context's tracer
(:mod:`repro.obs.telemetry`); record a block by running it under a
context with events on::

    from repro.obs.telemetry import Telemetry

    with Telemetry(events=True) as t:
        compile_and_simulate(loop)
    print(len(t.tracer))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

__all__ = ["Event", "Tracer"]


@dataclass(frozen=True)
class Event:
    """One trace record.

    ``ts``/``dur`` are in the emitting layer's own time domain (simulated
    cycles for the simulator, decision index for the schedulers); ``None``
    means "ordering only" — exporters fall back to ``seq``.
    """

    seq: int                 #: global emission order (deterministic)
    cat: str                 #: layer, e.g. "sched", "sim"
    name: str                #: event type, e.g. "tms.candidate"
    ts: float | None = None
    dur: float | None = None
    args: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"seq": self.seq, "cat": self.cat,
                             "name": self.name}
        if self.ts is not None:
            d["ts"] = self.ts
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d


class Tracer:
    """An append-only event sink with a cheap on/off switch."""

    __slots__ = ("enabled", "events", "_seq")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: list[Event] = []
        self._seq = 0

    def emit(self, cat: str, name: str, ts: float | None = None,
             dur: float | None = None, **args: Any) -> Event | None:
        """Record one event (no-op returning ``None`` when disabled).

        Hot call sites should still guard with ``if tracer.enabled`` to
        avoid building the ``args`` dict at all.
        """
        if not self.enabled:
            return None
        event = Event(seq=self._seq, cat=cat, name=name, ts=ts, dur=dur,
                      args=args)
        self._seq += 1
        self.events.append(event)
        return event

    def ingest(self, events: Iterable[Mapping[str, Any]]) -> None:
        """Re-emit serialized events (another tracer's ``to_dict``
        stream) into this tracer, re-assigning sequence numbers (no-op
        when disabled).  Content is preserved verbatim, so a merged
        ``--jobs N`` export stays byte-identical to a sequential run."""
        if not self.enabled:
            return
        for e in events:
            self.emit(e["cat"], e["name"], e.get("ts"), e.get("dur"),
                      **e.get("args", {}))

    def select(self, cat: str | None = None,
               name: str | None = None) -> list[Event]:
        """Events filtered by category and/or name, in emission order."""
        return [e for e in self.events
                if (cat is None or e.cat == cat)
                and (name is None or e.name == name)]

    def clear(self) -> None:
        """Drop all events and restart the sequence counter."""
        self.events.clear()
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)
