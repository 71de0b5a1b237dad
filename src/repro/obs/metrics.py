"""A zero-dependency metrics registry: counters, gauges and histograms.

Every layer of the pipeline publishes into the registry of the current
telemetry context (:func:`get_registry`, see :mod:`repro.obs.telemetry`):
the schedulers count searches and placements, the simulator counts
threads and violations, the session cache mirrors its hit/miss/eviction
counters, and the parallel runner counts its tasks.  Instruments are
cheap — an integer add — and wall-clock time is the spans' business
(:mod:`repro.obs.spans`), not the registry's.

Instruments are created idempotently by name, and call sites look them
up per call, so they always count into the current context::

    from repro.obs import metrics

    metrics.counter("cache.hits").inc()
    print(metrics.get_registry().render())
"""

from __future__ import annotations

import threading
from typing import Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "get_registry",
    "histogram",
]


class _Instrument:
    """Base: a named instrument."""

    __slots__ = ("name", "help")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help


class Counter(_Instrument):
    """Monotonically increasing count."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def reset(self) -> None:
        self.value = 0


class Gauge(_Instrument):
    """A value that goes up and down (last write wins)."""

    __slots__ = ("value",)

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def reset(self) -> None:
        self.value = 0.0


class Histogram(_Instrument):
    """Streaming summary of observed values (count/sum/min/max/mean)."""

    __slots__ = ("count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, help: str) -> None:
        super().__init__(name, help)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter.

    Asking for an existing name with a different instrument kind raises —
    names are global, so a collision is a bug.

    Another registry's :meth:`snapshot` (a worker's, say) folds in with
    :meth:`merge`, straight into these instruments.  Merge and snapshot
    share one lock, so a snapshot taken from another thread mid-merge
    never sees a half-applied contribution.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, _Instrument] = {}
        self._lock = threading.Lock()

    # -- instrument factories ----------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, help, Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, help, Gauge)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, help, Histogram)

    def _get_or_create(self, name: str, help: str, cls: type) -> "_Instrument":
        inst = self._instruments.get(name)
        if inst is not None:
            if type(inst) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, requested {cls.__name__}")
            return inst
        inst = cls(name, help)
        self._instruments[name] = inst
        return inst

    # -- introspection ------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str) -> _Instrument | None:
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict]:
        """Instrument values keyed by name (sorted)."""
        with self._lock:
            return {name: self._instruments[name].snapshot()
                    for name in sorted(self._instruments)}

    def merge(self, snapshot: Mapping[str, Mapping]) -> None:
        """Fold another registry's :meth:`snapshot` into these
        instruments, atomically: counters add, gauges take the merged
        value, histograms add count and sum and widen min and max."""
        with self._lock:
            for name, snap in snapshot.items():
                kind = snap["kind"]
                if kind == "counter":
                    self.counter(name).inc(snap["value"])
                elif kind == "gauge":
                    self.gauge(name).set(snap["value"])
                else:
                    h = self.histogram(name)
                    if snap["count"]:
                        h.count += snap["count"]
                        h.total += snap["sum"]
                        h.min = min(h.min, snap["min"])
                        h.max = max(h.max, snap["max"])

    def deterministic_totals(self) -> dict[str, int | float | dict]:
        """The snapshot reduced to counter/gauge values and histogram
        count+sum.  Two same-seed runs — sequential or fanned out —
        agree on this map exactly."""
        out: dict[str, int | float | dict] = {}
        for name, snap in self.snapshot().items():
            if snap["kind"] in ("counter", "gauge"):
                out[name] = snap["value"]
            else:
                out[name] = {"count": snap["count"], "sum": snap["sum"]}
        return out

    def render(self) -> str:
        """Aligned one-line-per-instrument dump for terminals."""
        lines = []
        for name, snap in self.snapshot().items():
            if snap["kind"] in ("counter", "gauge"):
                lines.append(f"{name:<36} {snap['value']}")
            else:
                lines.append(
                    f"{name:<36} count={snap['count']} "
                    f"sum={snap['sum']:.3f} mean={snap['mean']:.3f} "
                    f"max={snap['max']:.3f}")
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every instrument (the instruments stay registered)."""
        with self._lock:
            for inst in self._instruments.values():
                inst.reset()


# -- the current context's registry -------------------------------------------

def get_registry() -> MetricsRegistry:
    """The registry of the current telemetry context."""
    return telemetry.current().registry


def counter(name: str, help: str = "") -> Counter:
    """Shortcut: a counter in the current registry."""
    return telemetry.current().registry.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    """Shortcut: a gauge in the current registry."""
    return telemetry.current().registry.gauge(name, help)


def histogram(name: str, help: str = "") -> Histogram:
    """Shortcut: a histogram in the current registry."""
    return telemetry.current().registry.histogram(name, help)


# telemetry builds its context from MetricsRegistry, so it is imported
# last; the shortcuts above resolve it at call time.
from . import telemetry  # noqa: E402
