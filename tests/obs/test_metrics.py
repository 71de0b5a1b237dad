"""Metrics registry: counters, gauges, histograms."""

import pytest

from repro.obs import metrics
from repro.obs.metrics import Counter


def test_counter_inc(registry):
    c = registry.counter("a.hits", "hits")
    c.inc()
    c.inc(4)
    assert c.value == 5


def test_idempotent_creation(registry):
    assert registry.counter("x") is registry.counter("x")
    assert len(registry) == 1


def test_kind_collision_raises(registry):
    registry.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        registry.gauge("x")


def test_gauge_last_write_wins(registry):
    g = registry.gauge("g")
    g.set(3.0)
    g.set(1.5)
    assert g.value == 1.5


def test_histogram_summary(registry):
    h = registry.histogram("h")
    for v in (2.0, 4.0, 6.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 3
    assert snap["sum"] == pytest.approx(12.0)
    assert snap["min"] == 2.0 and snap["max"] == 6.0
    assert snap["mean"] == pytest.approx(4.0)


def test_empty_histogram_snapshot(registry):
    snap = registry.histogram("h").snapshot()
    assert snap["count"] == 0
    assert snap["min"] == 0.0 and snap["max"] == 0.0 and snap["mean"] == 0.0


def test_snapshot_sorted_and_render(registry):
    registry.counter("b").inc(2)
    registry.gauge("a").set(1.0)
    snap = registry.snapshot()
    assert list(snap) == ["a", "b"]
    text = registry.render()
    assert "a" in text and "2" in text


def test_reset_keeps_instruments(registry):
    c = registry.counter("c")
    c.inc(9)
    registry.reset()
    assert c.value == 0
    assert "c" in registry


def test_module_shortcuts_use_default_registry(registry):
    """The shortcuts count into the current context's registry."""
    metrics.counter("short").inc()
    assert registry.get("short").value == 1
    assert isinstance(registry.get("short"), Counter)
    assert metrics.get_registry() is registry
