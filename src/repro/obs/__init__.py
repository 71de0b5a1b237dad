"""Observability: metrics, structured event tracing, trace exports and
the cost-model-vs-simulator discrepancy report.

* :mod:`repro.obs.telemetry` — the one :class:`Telemetry` context: a
  metrics registry, an event tracer and a span tracer, installed
  together (``with Telemetry(events=True) as t:``).  Instrumented code
  records into the current context; parallel workers run under a fresh
  one and the parent merges their snapshots back, so ``--stats`` and
  ``--trace`` are complete under ``--jobs N``.
* :mod:`repro.obs.metrics` — a zero-dependency registry of counters,
  gauges and histograms.  The schedulers, simulator, session cache and
  parallel runner all publish into the current registry;
  ``tms-experiments --stats`` dumps it.
* :mod:`repro.obs.events` — the :class:`Tracer` the schedulers and
  simulator emit structured events into when events are on
  (``tms-experiments --trace``).  Off by default; hot paths pay one
  attribute read.
* :mod:`repro.obs.export` — deterministic JSONL and Chrome
  trace-event (``chrome://tracing``) serialisation of those events,
  plus the :func:`format_trace` lane summary.
* :mod:`repro.obs.spans` — the deterministic hierarchical
  :class:`SpanTracer` (``span("compile.tms", kernel=...)`` regions with
  parent/child ids, wall + exclusive time and per-span metric deltas);
  the one way to time a region.
* :mod:`repro.obs.ledger` — the append-only JSONL run ledger
  (``REPRO_LEDGER_DIR``) that ``tms-experiments report`` renders and
  gates on.
* :mod:`repro.obs.report` — the :class:`DiscrepancyReport` comparing
  the Section 4.2 cost model's predicted ``T`` against simulated
  ``total_cycles`` per kernel (built by ``tms-experiments validate``).

See ``docs/observability.md`` for metric names, the event schema and
the trace-export workflow.
"""

from __future__ import annotations

from .events import Event, Tracer
from .export import (
    KNOWN_CATS,
    events_to_jsonl,
    format_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from .ledger import (
    LEDGER_SCHEMA,
    append_run_record,
    ledger_dir,
    read_ledger,
    validate_ledger_record_dict,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from .report import (
    REPORT_SCHEMA,
    DiscrepancyReport,
    DiscrepancyRow,
    validate_report_dict,
)
from .spans import Span, SpanTracer, span_tree, spans_to_dicts
from .telemetry import Telemetry, span

__all__ = [
    "Counter",
    "DiscrepancyReport",
    "DiscrepancyRow",
    "Event",
    "Gauge",
    "Histogram",
    "KNOWN_CATS",
    "LEDGER_SCHEMA",
    "MetricsRegistry",
    "REPORT_SCHEMA",
    "Span",
    "SpanTracer",
    "Telemetry",
    "Tracer",
    "append_run_record",
    "events_to_jsonl",
    "format_trace",
    "get_registry",
    "ledger_dir",
    "read_ledger",
    "span",
    "span_tree",
    "spans_to_dicts",
    "to_chrome_trace",
    "validate_ledger_record_dict",
    "validate_report_dict",
    "write_chrome_trace",
    "write_events_jsonl",
]
