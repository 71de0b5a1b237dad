"""Unit tests for the hierarchical span tracer (repro.obs.spans)."""

import json
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanTracer, span_tree, spans_to_dicts
from repro.obs.telemetry import Telemetry, span


def _tracer(**switches) -> SpanTracer:
    """A span tracer over a registry of its own."""
    return SpanTracer(MetricsRegistry(), **switches)


class TestSpanRecording:
    def test_disabled_tracer_yields_none_and_records_nothing(self):
        st = _tracer(enabled=False)
        with st.span("x") as s:
            assert s is None
        assert len(st) == 0

    def test_detail_span_skipped_without_detail_mode(self):
        st = _tracer(enabled=True, detail=False)
        with st.span("coarse"):
            with st.span("fine", detail=True) as s:
                assert s is None
        assert [s.name for s in st.spans] == ["coarse"]

    def test_detail_span_recorded_in_detail_mode(self):
        st = _tracer(enabled=True, detail=True)
        with st.span("fine", detail=True):
            pass
        assert [s.name for s in st.spans] == ["fine"]

    def test_ids_assigned_in_open_order_with_parent_links(self):
        st = _tracer(enabled=True)
        with st.span("a"):
            with st.span("b"):
                pass
            with st.span("c"):
                pass
        a, b, c = st.spans
        assert (a.id, b.id, c.id) == (0, 1, 2)
        assert a.parent_id is None
        assert b.parent_id == a.id
        assert c.parent_id == a.id

    def test_attrs_captured_and_mutable_until_close(self):
        st = _tracer(enabled=True)
        with st.span("a", kernel="k1") as s:
            s.attrs["outcome"] = "ok"
        assert st.spans[0].attrs == {"kernel": "k1", "outcome": "ok"}

    def test_wall_and_exclusive_time(self):
        st = _tracer(enabled=True)
        with st.span("outer"):
            with st.span("inner"):
                pass
        outer, inner = st.spans
        assert outer.wall >= inner.wall >= 0.0
        assert outer.exclusive == pytest.approx(outer.wall - inner.wall)
        assert inner.exclusive == pytest.approx(inner.wall)

    def test_metric_deltas_only_include_changed_instruments(self, registry):
        registry.counter("pre.existing").inc(10)
        st = SpanTracer(registry, enabled=True)
        with st.span("work"):
            registry.counter("work.done").inc(3)
            registry.histogram("work.sizes").observe(2.0)
        (s,) = st.spans
        assert s.metrics == {"work.done": 3,
                             "work.sizes": {"count": 1, "sum": 2.0}}

    def test_nested_deltas_accumulate_to_parent(self, registry):
        st = SpanTracer(registry, enabled=True)
        with st.span("outer"):
            registry.counter("n").inc()
            with st.span("inner"):
                registry.counter("n").inc(2)
        outer, inner = st.spans
        assert outer.metrics == {"n": 3}
        assert inner.metrics == {"n": 2}

    def test_exception_still_closes_span(self):
        st = _tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with st.span("boom"):
                raise RuntimeError("x")
        assert len(st.spans) == 1
        assert st._stack == []

    def test_clear_resets_ids(self):
        st = _tracer(enabled=True)
        with st.span("a"):
            pass
        st.clear()
        with st.span("b"):
            pass
        assert st.spans[0].id == 0


class TestIngest:
    def test_ingest_rebases_under_open_span(self):
        worker = _tracer(enabled=True)
        with worker.span("w.outer"):
            with worker.span("w.inner"):
                pass
        payload = spans_to_dicts(worker.spans)

        parent = _tracer(enabled=True)
        with parent.span("p.root"):
            parent.ingest(payload)
        root, outer, inner = parent.spans
        assert outer.parent_id == root.id
        assert inner.parent_id == outer.id

    def test_ingested_roots_are_children_of_the_anchor(self):
        # two workers' 1.0 s root spans, overlapping in time: their wall
        # leaves the anchor's exclusive time, clamped at 0
        worker_root = {"id": 0, "parent_id": None, "name": "w", "wall": 1.0}
        parent = _tracer(enabled=True)
        with parent.span("p.root"):
            parent.ingest([worker_root])
            parent.ingest([worker_root])
            time.sleep(0.01)
        root = parent.spans[0]
        assert 0.01 <= root.wall < 2.0
        assert root.exclusive == 0.0

    def test_ingest_without_open_span_makes_roots(self):
        worker = _tracer(enabled=True)
        with worker.span("w"):
            pass
        parent = _tracer(enabled=True)
        parent.ingest(spans_to_dicts(worker.spans))
        assert parent.spans[0].parent_id is None

    def test_ingest_disabled_is_noop(self):
        parent = _tracer(enabled=False)
        parent.ingest([{"name": "x", "id": 0, "parent_id": None}])
        assert len(parent) == 0


class TestTreeAndRollup:
    def test_normalized_tree_drops_ids_and_wall(self):
        st = _tracer(enabled=True)
        with st.span("a", k=1):
            with st.span("b"):
                pass
        tree = span_tree(st.spans)
        assert tree == [{"name": "a", "attrs": {"k": 1},
                         "children": [{"name": "b"}]}]

    def test_normalized_tree_sorts_siblings(self):
        left = _tracer(enabled=True)
        with left.span("root"):
            with left.span("z"):
                pass
            with left.span("a"):
                pass
        right = _tracer(enabled=True)
        with right.span("root"):
            with right.span("a"):
                pass
            with right.span("z"):
                pass
        assert span_tree(left.spans) == span_tree(right.spans)

    def test_raw_tree_keeps_ids_and_order(self):
        st = _tracer(enabled=True)
        with st.span("root"):
            with st.span("z"):
                pass
            with st.span("a"):
                pass
        tree = span_tree(st.spans, normalize=False)
        assert [c["name"] for c in tree[0]["children"]] == ["z", "a"]
        assert tree[0]["id"] == 0

    def test_rollup_aggregates_by_name(self):
        st = _tracer(enabled=True)
        for _ in range(3):
            with st.span("work"):
                pass
        roll = st.rollup()
        assert roll["work"]["count"] == 3
        assert roll["work"]["wall_seconds"] >= 0.0

    def test_round_trip_to_dict_from_dict(self):
        st = _tracer(enabled=True)
        with st.span("a", k="v") as s:
            pass
        d = s.to_dict()
        clone = Span.from_dict(d, id=7, parent_id=None)
        assert clone.name == "a"
        assert clone.attrs == {"k": "v"}
        assert clone.wall == s.wall
        assert json.dumps(d)  # payload is JSON-serialisable


class TestModuleDefaults:
    def test_module_span_follows_the_current_context(self):
        with Telemetry(spans=True) as fresh:
            with span("via.module"):
                fresh.registry.counter("work").inc()
        assert [s.name for s in fresh.spans.spans] == ["via.module"]
        assert fresh.spans.spans[0].metrics == {"work": 1}
