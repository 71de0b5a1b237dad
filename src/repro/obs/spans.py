"""Deterministic hierarchical span tracing.

A :class:`SpanTracer` records one :class:`Span` per instrumented region —
``span("compile.tms", kernel=...)`` context managers wired through the
session layer, the degradation ladder, the placement engine and the
simulator.  Each span carries:

* a deterministic integer ``id`` (assigned in open order) and its
  parent's id, so the spans form a tree;
* ``wall`` and ``exclusive`` seconds (wall minus the wall of direct
  children);
* the **metric deltas** observed inside the span: the change in every
  deterministic instrument of the default registry
  (:meth:`~repro.obs.metrics.MetricsRegistry.deterministic_totals`)
  between open and close, so a span answers "what work happened here"
  (compiles, placements, simulated violations, ...) — not just "how
  long".

Wall-clock fields are machine noise; everything else — ids, names,
attrs, nesting, metric deltas — is deterministic for a given seed, and
:func:`span_tree` projects a normalized (id/time-free, sorted) tree two
runs can be compared on.  The satellite determinism suite pins
``--jobs 1`` vs ``--jobs 4`` equality on exactly that projection.

Spans are **off by default** and cost one attribute read when off.  The
CLI enables them with ``--trace`` (which also turns on ``detail`` spans:
per-placement-attempt, per-thread-loop) and whenever a run ledger
directory is configured (coarse spans only, for the ledger's roll-up).

Worker processes record spans into their own tracer; the parent
re-bases them under its currently open span via :meth:`SpanTracer.ingest`
(see :mod:`repro.obs.aggregate`), tagging each with a ``worker.<task>``
origin that the normalized projection ignores.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "Span",
    "SpanTracer",
    "enable_spans",
    "get_span_tracer",
    "set_span_tracer",
    "span",
    "span_tree",
    "spans_to_dicts",
]


class Span:
    """One recorded region: identity, tree position, timing, deltas."""

    __slots__ = ("id", "parent_id", "name", "origin", "attrs", "wall",
                 "exclusive", "metrics", "_t0", "_child_wall", "_before")

    def __init__(self, id: int, parent_id: int | None, name: str,
                 attrs: dict[str, Any], origin: str = "") -> None:
        self.id = id
        self.parent_id = parent_id
        self.name = name
        self.origin = origin
        self.attrs = attrs
        self.wall = 0.0
        self.exclusive = 0.0
        self.metrics: dict[str, Any] = {}
        self._t0 = 0.0
        self._child_wall = 0.0
        self._before: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"id": self.id, "parent_id": self.parent_id,
                             "name": self.name, "wall": self.wall,
                             "exclusive": self.exclusive}
        if self.origin:
            d["origin"] = self.origin
        if self.attrs:
            d["attrs"] = self.attrs
        if self.metrics:
            d["metrics"] = self.metrics
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any], *, id: int,
                  parent_id: int | None, origin: str = "") -> "Span":
        s = cls(id, parent_id, str(d.get("name", "")),
                dict(d.get("attrs") or {}), origin=origin)
        s.wall = float(d.get("wall", 0.0))
        s.exclusive = float(d.get("exclusive", 0.0))
        s.metrics = dict(d.get("metrics") or {})
        return s


class SpanTracer:
    """A stack-based span recorder with a cheap on/off switch.

    ``spans`` holds every span in open order (ids ascending);
    ``detail`` additionally enables the high-volume instrumentation
    points (per placement attempt, per simulator thread loop) that a
    ledger-only run skips.
    """

    __slots__ = ("enabled", "detail", "spans", "_stack", "_next_id")

    def __init__(self, enabled: bool = False, detail: bool = False) -> None:
        self.enabled = enabled
        self.detail = detail
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, *, detail: bool = False,
             **attrs: Any) -> Iterator[Span | None]:
        """Record the body as one span (no-op yielding ``None`` when
        off, or when ``detail=True`` and detail spans are off).  The
        yielded :class:`Span` accepts extra ``attrs`` entries until the
        block exits."""
        if not self.enabled or (detail and not self.detail):
            yield None
            return
        s = self._begin(name, attrs)
        try:
            yield s
        finally:
            self._end(s)

    def _begin(self, name: str, attrs: dict[str, Any]) -> Span:
        from .metrics import get_registry

        parent = self._stack[-1] if self._stack else None
        s = Span(self._next_id, parent.id if parent else None, name, attrs)
        self._next_id += 1
        s._before = get_registry().deterministic_totals()
        s._t0 = time.perf_counter()
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _end(self, s: Span) -> None:
        from .metrics import get_registry

        s.wall = time.perf_counter() - s._t0
        s.exclusive = max(0.0, s.wall - s._child_wall)
        after = get_registry().deterministic_totals()
        before = s._before or {}
        s.metrics = _totals_delta(before, after)
        s._before = None
        # unwind to (and including) s: tolerate a caller that leaked an
        # inner span rather than corrupting the whole stack.
        while self._stack:
            top = self._stack.pop()
            if top is s:
                break
        if self._stack:
            self._stack[-1]._child_wall += s.wall

    # -- cross-process merge -------------------------------------------------

    def ingest(self, span_dicts: Sequence[Mapping[str, Any]],
               origin: str = "") -> int:
        """Re-base serialized spans (a worker's :func:`spans_to_dicts`)
        under the currently open span; returns how many were added.
        Relative structure and order are preserved; ids are re-assigned
        deterministically in ingest order."""
        if not self.enabled or not span_dicts:
            return 0
        anchor = self._stack[-1].id if self._stack else None
        id_map: dict[Any, int] = {}
        for d in span_dicts:
            old_parent = d.get("parent_id")
            parent = id_map.get(old_parent, anchor) \
                if old_parent is not None else anchor
            s = Span.from_dict(d, id=self._next_id, parent_id=parent,
                               origin=origin or str(d.get("origin", "")))
            id_map[d.get("id")] = s.id
            self._next_id += 1
            self.spans.append(s)
        return len(span_dicts)

    # -- reporting -----------------------------------------------------------

    def rollup(self) -> dict[str, dict[str, float]]:
        """Aggregate spans by name: count, total wall, total exclusive."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            agg = out.setdefault(s.name, {"count": 0, "wall_seconds": 0.0,
                                          "exclusive_seconds": 0.0})
            agg["count"] += 1
            agg["wall_seconds"] += s.wall
            agg["exclusive_seconds"] += s.exclusive
        return {name: out[name] for name in sorted(out)}

    def clear(self) -> None:
        """Drop all spans and restart the id counter."""
        self.spans.clear()
        self._stack.clear()
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.spans)


def _totals_delta(before: Mapping[str, Any],
                  after: Mapping[str, Any]) -> dict[str, Any]:
    """Per-instrument change between two ``deterministic_totals`` maps
    (only instruments that actually changed)."""
    delta: dict[str, Any] = {}
    for name, now in after.items():
        prev = before.get(name)
        if isinstance(now, dict):
            prev = prev or {}
            d = {k: now[k] - prev.get(k, 0) for k in ("count", "sum")
                 if k in now}
            if any(d.values()):
                delta[name] = d
        else:
            diff = now - (prev or 0)
            if diff:
                delta[name] = diff
    return delta


def spans_to_dicts(spans: Sequence[Span]) -> list[dict[str, Any]]:
    """Serialise spans (ids preserved) for export / worker hand-off."""
    return [s.to_dict() for s in spans]


def span_tree(spans: Sequence[Span] | None = None, *,
              normalize: bool = True) -> list[dict[str, Any]]:
    """The spans as a nested forest.

    ``normalize=True`` (default) drops ids, origins and every wall-clock
    field, and sorts siblings by ``(name, attrs, metrics)`` — the
    deterministic projection the ``--jobs 1`` vs ``--jobs 4`` equality
    tests compare.  ``normalize=False`` keeps everything, in open order.
    """
    import json

    if spans is None:
        spans = get_span_tracer().spans
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    known = {s.id for s in spans}

    def node(s: Span) -> dict[str, Any]:
        d: dict[str, Any] = {"name": s.name}
        if s.attrs:
            d["attrs"] = s.attrs
        if s.metrics:
            d["metrics"] = s.metrics
        if not normalize:
            d["id"] = s.id
            d["wall"] = s.wall
            d["exclusive"] = s.exclusive
            if s.origin:
                d["origin"] = s.origin
        kids = [node(c) for c in children.get(s.id, [])]
        if normalize:
            kids.sort(key=lambda n: json.dumps(n, sort_keys=True))
        if kids:
            d["children"] = kids
        return d

    roots = [s for s in spans
             if s.parent_id is None or s.parent_id not in known]
    out = [node(s) for s in roots]
    if normalize:
        out.sort(key=lambda n: json.dumps(n, sort_keys=True))
    return out


# -- the process-wide default span tracer ------------------------------------

_SPANS = SpanTracer()


def get_span_tracer() -> SpanTracer:
    """The process-wide default span tracer."""
    return _SPANS


def set_span_tracer(tracer: SpanTracer) -> SpanTracer:
    """Replace the default span tracer; returns the previous one."""
    global _SPANS
    previous, _SPANS = _SPANS, tracer
    return previous


def enable_spans(on: bool = True, *, detail: bool | None = None) -> SpanTracer:
    """Switch the default span tracer on/off (optionally detail spans
    too); returns it."""
    _SPANS.enabled = on
    if detail is not None:
        _SPANS.detail = detail
    return _SPANS


@contextmanager
def span(name: str, *, detail: bool = False,
         **attrs: Any) -> Iterator[Span | None]:
    """Shortcut: a span in the default tracer."""
    with _SPANS.span(name, detail=detail, **attrs) as s:
        yield s
