"""Cross-process aggregation: a task's telemetry context, its snapshot,
and the merge of that snapshot into the parent's context and registry."""

import threading

import pytest

from repro.obs import metrics, telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry, span


class TestTaskContext:
    """A task recorded under a fresh context (what a worker does)."""

    def test_worker_scope_isolates_and_snapshots(self, registry):
        registry.counter("parent.only").inc()
        with Telemetry(events=True, spans=True) as worker:
            metrics.counter("task.work").inc(5)
            telemetry.current().tracer.emit("sched", "place", node="a")
            with span("task.span"):
                pass
        snap = worker.snapshot()
        # parent state untouched by the task
        assert "task.work" not in registry
        assert registry.counter("parent.only").value == 1
        assert snap["metrics"]["task.work"]["value"] == 5
        assert len(snap["events"]) == 1
        assert [s["name"] for s in snap["spans"]] == ["task.span"]

    def test_previous_defaults_restored_after_scope(self, registry):
        outer = telemetry.current()
        with Telemetry() as inner:
            assert telemetry.current() is inner
            assert metrics.get_registry() is inner.registry
        assert telemetry.current() is outer
        assert metrics.get_registry() is registry

    def test_switches_reflect_the_context(self):
        t = Telemetry(spans=True, detail=True)
        assert t.switches() == {"events": False, "spans": True,
                                "detail": True}
        assert Telemetry(**t.switches()).switches() == t.switches()

    def test_installing_an_installed_context_raises(self):
        with Telemetry() as t:
            with pytest.raises(RuntimeError, match="already installed"):
                t.__enter__()
        assert telemetry.current() is not t


class TestTelemetryMerge:
    def test_merge_combines_into_registry_tracer_spans(
            self, registry, tracer, span_tracer):
        with Telemetry(events=True, spans=True) as worker:
            metrics.counter("w.count").inc(2)
            worker.tracer.emit("sim", "commit", thread=0)
            with span("w.region"):
                pass
        with span("p.root"):
            telemetry.current().merge(worker.snapshot())
        assert registry.snapshot()["w.count"]["value"] == 2
        assert [e.name for e in tracer.events] == ["commit"]
        root, region = span_tracer.spans
        assert region.name == "w.region"
        assert region.parent_id == root.id
        assert root.metrics == {"w.count": 2}

    def test_merge_skips_events_and_spans_that_are_off(self):
        with Telemetry(events=True, spans=True) as worker:
            metrics.counter("w.count").inc()
            worker.tracer.emit("sim", "commit")
            with span("w.region"):
                pass
        parent = Telemetry()
        parent.merge(worker.snapshot())
        assert parent.registry.counter("w.count").value == 1
        assert len(parent.tracer) == 0 and len(parent.spans) == 0


class TestRegistryMerge:
    """``MetricsRegistry.merge``: a snapshot folds into the instruments."""

    def test_histograms_merge_counts_and_bounds(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        reg.merge({"h": {"kind": "histogram", "count": 2, "sum": 10.0,
                         "min": 4.0, "max": 6.0, "mean": 5.0}})
        snap = reg.snapshot()["h"]
        assert snap["count"] == 3
        assert snap["sum"] == 11.0
        assert snap["min"] == 1.0
        assert snap["max"] == 6.0

    def test_counters_add_and_gauges_take_the_merged_value(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        reg.gauge("g").set(3.0)
        reg.merge({"c": {"kind": "counter", "value": 10},
                   "g": {"kind": "gauge", "value": 7.0}})
        assert reg.counter("c").value == 11
        assert reg.gauge("g").value == 7.0

    def test_repeated_merge_accumulates(self):
        reg = MetricsRegistry()
        for _ in range(3):
            reg.merge({"c": {"kind": "counter", "value": 2}})
        assert reg.counter("c").value == 6

    def test_reset_clears_merged_contributions(self):
        reg = MetricsRegistry()
        reg.merge({"c": {"kind": "counter", "value": 5}})
        reg.reset()
        assert reg.counter("c").value == 0

    def test_merge_is_atomic_under_concurrent_snapshots(self):
        """Snapshots racing a merge never observe a half-applied
        contribution: every snapshot of the merged counter pair sums to
        a multiple of the per-merge delta."""
        reg = MetricsRegistry()
        contribution = {"a": {"kind": "counter", "value": 1},
                        "b": {"kind": "counter", "value": 1}}
        bad: list[dict] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                snap = reg.snapshot()
                a = snap.get("a", {}).get("value", 0)
                b = snap.get("b", {}).get("value", 0)
                if a != b:
                    bad.append(snap)

        t = threading.Thread(target=reader)
        t.start()
        try:
            for _ in range(500):
                reg.merge(contribution)
        finally:
            stop.set()
            t.join()
        assert not bad
        assert reg.snapshot()["a"]["value"] == 500

    def test_deterministic_totals_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3.0)
        totals = reg.deterministic_totals()
        assert totals == {"c": 2, "g": 1.5, "h": {"count": 1, "sum": 3.0}}


class TestTracerIngest:
    def test_ingest_reassigns_seq_preserving_content(self, tracer):
        tracer.emit("sched", "local_first")
        payload = [{"seq": 40, "cat": "sim", "name": "commit",
                    "ts": 5.0, "args": {"thread": 2}}]
        tracer.ingest(payload)
        merged = tracer.events[-1]
        assert merged.seq == 1                # fresh, not 40
        assert merged.cat == "sim"
        assert merged.ts == 5.0
        assert merged.args == {"thread": 2}
