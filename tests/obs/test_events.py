"""Structured event tracing."""

from repro.obs import telemetry
from repro.obs.events import Tracer
from repro.obs.telemetry import Telemetry


def test_disabled_tracer_records_nothing():
    t = Tracer()
    assert t.emit("sim", "spawn", thread=0) is None
    assert len(t) == 0


def test_emit_sequences_events():
    t = Tracer(enabled=True)
    a = t.emit("sched", "place", node="n1")
    b = t.emit("sim", "spawn", ts=4.0, dur=2.0, thread=0)
    assert (a.seq, b.seq) == (0, 1)
    assert [e.name for e in t] == ["place", "spawn"]
    assert b.ts == 4.0 and b.dur == 2.0 and b.args == {"thread": 0}


def test_to_dict_omits_empty_fields():
    t = Tracer(enabled=True)
    bare = t.emit("sched", "search")
    full = t.emit("sim", "exec", ts=1.0, dur=2.0, thread=3)
    assert bare.to_dict() == {"seq": 0, "cat": "sched", "name": "search"}
    assert full.to_dict() == {"seq": 1, "cat": "sim", "name": "exec",
                              "ts": 1.0, "dur": 2.0, "args": {"thread": 3}}


def test_select_filters():
    t = Tracer(enabled=True)
    t.emit("sched", "place")
    t.emit("sim", "spawn")
    t.emit("sim", "commit")
    assert [e.name for e in t.select(cat="sim")] == ["spawn", "commit"]
    assert [e.cat for e in t.select(name="place")] == ["sched"]
    assert len(t.select()) == 3


def test_clear_restarts_sequence():
    t = Tracer(enabled=True)
    t.emit("sim", "spawn")
    t.clear()
    assert len(t) == 0
    assert t.emit("sim", "spawn").seq == 0


def test_tracing_contextmanager_restores_state():
    """A context with events on takes the block's events; on exit the
    previous context is current again, its tracer untouched."""
    outer = telemetry.current()
    assert outer.tracer.enabled is False
    before = len(outer.tracer)
    with Telemetry(events=True) as t:
        assert telemetry.current() is t and t.tracer.enabled
        telemetry.current().tracer.emit("sim", "spawn")
    assert telemetry.current() is outer
    assert [e.name for e in t.tracer] == ["spawn"]
    assert outer.tracer.enabled is False and len(outer.tracer) == before
