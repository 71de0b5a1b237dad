"""The telemetry context: one metrics registry, event tracer and span
tracer, installed together.

Instrumented code never keeps an instrument: it asks the current
context for one at call time (``metrics.counter(...)``,
``telemetry.current().tracer``, :func:`span`), so a block run under
``with Telemetry(...) as t:`` records into ``t`` alone.  The current
context is a plain module global, not a thread- or context-local one:
the serve broker's executor thread counts into the context its caller
installed.

A :class:`~repro.session.runner.ParallelRunner` worker runs each task
under a fresh context with the parent's :meth:`~Telemetry.switches` and
returns its :meth:`~Telemetry.snapshot`; the parent folds the snapshots
into its own context with :meth:`~Telemetry.merge` in submission order,
so ``--stats`` totals and ``--trace`` exports under ``--jobs N`` match a
sequential run.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Any, Mapping

from .events import Tracer
from .metrics import MetricsRegistry
from .spans import Span, SpanTracer, spans_to_dicts

__all__ = ["Telemetry", "current", "span"]


class Telemetry:
    """A metrics registry, an event tracer and a span tracer.

    Events and spans are off unless switched on (``events``, ``spans``,
    and ``detail`` for the high-volume detail spans); metrics always
    count.  ``with Telemetry(...) as t:`` installs ``t`` as the current
    context for the block and restores the previous one on exit.
    """

    __slots__ = ("registry", "tracer", "spans", "_previous")

    def __init__(self, *, events: bool = False, spans: bool = False,
                 detail: bool = False) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(enabled=events)
        self.spans = SpanTracer(self.registry, enabled=spans, detail=detail)
        self._previous: Telemetry | None = None

    def switches(self) -> dict[str, bool]:
        """The keyword arguments of an empty context that records what
        this one records (picklable, for a worker process)."""
        return {"events": self.tracer.enabled, "spans": self.spans.enabled,
                "detail": self.spans.detail}

    def snapshot(self) -> dict[str, Any]:
        """Everything recorded, as plain picklable data for
        :meth:`merge`."""
        return {"metrics": self.registry.snapshot(),
                "events": [e.to_dict() for e in self.tracer.events],
                "spans": spans_to_dicts(self.spans.spans)}

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold another context's :meth:`snapshot` into this one: its
        metrics into these instruments, its events (when events are on)
        after these, its spans (when spans are on) under the open span."""
        self.registry.merge(snapshot["metrics"])
        self.tracer.ingest(snapshot["events"])
        self.spans.ingest(snapshot["spans"])

    def __enter__(self) -> "Telemetry":
        global _current
        if self._previous is not None:
            raise RuntimeError("this telemetry context is already installed")
        self._previous, _current = _current, self
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _current
        _current, self._previous = self._previous, None


_current = Telemetry()


def current() -> Telemetry:
    """The installed telemetry context."""
    return _current


def span(name: str, *, detail: bool = False,
         **attrs: Any) -> AbstractContextManager[Span | None]:
    """Shortcut: a span in the current context's span tracer."""
    return _current.spans.span(name, detail=detail, **attrs)
