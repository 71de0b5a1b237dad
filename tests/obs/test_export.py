"""JSONL and Chrome trace-event exports."""

import json

from repro.obs.events import Tracer
from repro.obs.export import (
    KNOWN_CATS,
    events_to_jsonl,
    format_trace,
    to_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)


def _sample_events():
    t = Tracer(enabled=True)
    t.emit("sched", "place", node="n1", cycle=3)
    t.emit("sim", "spawn", ts=0.0, dur=4.0, thread=0, tid=0)
    t.emit("sim", "violation", ts=9.0, thread=1, tid=1)
    return t.events


def test_jsonl_round_trip():
    lines = events_to_jsonl(_sample_events()).splitlines()
    assert len(lines) == 3
    objs = [json.loads(line) for line in lines]
    assert [o["seq"] for o in objs] == [0, 1, 2]
    assert objs[1] == {"seq": 1, "cat": "sim", "name": "spawn", "ts": 0.0,
                       "dur": 4.0, "args": {"thread": 0, "tid": 0}}


def test_write_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events_jsonl(_sample_events(), path)
    text = path.read_text()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 3


def test_write_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    write_events_jsonl([], path)
    assert path.read_text() == ""


def test_chrome_trace_shape():
    doc = to_chrome_trace(_sample_events())
    records = doc["traceEvents"]
    # one metadata record per category, in order of first appearance
    meta = [r for r in records if r["ph"] == "M"]
    assert [m["args"]["name"] for m in meta] == ["sched", "sim"]
    assert [m["pid"] for m in meta] == [0, 1]
    by_name = {r["name"]: r for r in records if r["ph"] != "M"}
    # event with a duration -> complete slice
    spawn = by_name["spawn"]
    assert spawn["ph"] == "X" and spawn["dur"] == 4.0 and spawn["tid"] == 0
    assert "tid" not in spawn["args"]  # lifted to the record, not duplicated
    # no duration -> instant; no ts -> falls back to seq
    place = by_name["place"]
    assert place["ph"] == "i" and place["ts"] == 0.0
    violation = by_name["violation"]
    assert violation["ph"] == "i" and violation["tid"] == 1


def test_chrome_trace_unknown_cats_share_other_lane():
    t = Tracer(enabled=True)
    t.emit("sched", "place", node="n1")
    t.emit("plugin", "hook")
    t.emit("custom", "probe", ts=2.0)
    doc = to_chrome_trace(t.events)
    records = doc["traceEvents"]
    meta = [r for r in records if r["ph"] == "M"]
    # one shared lane for both unknown categories, after the known one
    assert [m["args"]["name"] for m in meta] == ["sched", "other"]
    other_pid = meta[1]["pid"]
    by_name = {r["name"]: r for r in records if r["ph"] != "M"}
    assert by_name["hook"]["pid"] == other_pid
    assert by_name["probe"]["pid"] == other_pid
    # the original category is preserved on the record
    assert by_name["hook"]["cat"] == "plugin"
    assert by_name["probe"]["cat"] == "custom"
    # nothing dropped
    assert len([r for r in records if r["ph"] != "M"]) == 3


def test_format_trace_counts_every_event():
    t = Tracer(enabled=True)
    t.emit("sched", "place")
    t.emit("sched", "place")
    t.emit("sim", "commit")
    t.emit("plugin", "hook")
    t.emit("custom", "probe")
    text = format_trace(t.events)
    lines = text.splitlines()
    assert lines[0].startswith("sched") and "place=2" in lines[0]
    assert lines[1].startswith("sim")
    other = lines[2]
    assert other.startswith("other") and "2 events" in other
    assert "[cats: custom, plugin]" in other
    # totals line counts all 5 events across 3 lanes
    assert lines[-1].split() == ["total", "5", "events", "in", "3", "lanes"]


def test_format_trace_known_lane_order():
    t = Tracer(enabled=True)
    t.emit("sim", "commit")
    t.emit("sched", "place")
    lanes = [line.split()[0] for line in format_trace(t.events).splitlines()]
    assert lanes == list(KNOWN_CATS) + ["total"]


def test_chrome_trace_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_chrome_trace(_sample_events(), a)
    write_chrome_trace(_sample_events(), b)
    assert a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # well-formed
