"""Trace exports: JSONL event logs and Chrome trace-event files.

Two formats, both deterministic (stable key order, no wall-clock data):

* **JSONL** — one :meth:`Event.to_dict` object per line; the lossless
  machine-readable log.
* **Chrome trace-event JSON** — loadable in ``chrome://tracing`` /
  https://ui.perfetto.dev for a visual timeline.  Events with a duration
  become complete (``"X"``) slices, the rest instant (``"i"``) marks.
  Categories map to trace *processes* (named via metadata records) and
  the emitting core — ``args["tid"]`` when present — to trace threads.
  Timestamps are exported as-is: one simulated cycle (or one scheduler
  decision) renders as one microsecond.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from .events import Event

__all__ = [
    "KNOWN_CATS",
    "events_to_jsonl",
    "format_trace",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
]

#: Categories the instrumented layers emit.  Anything else (a plugin, a
#: future layer, a hand-built event) still renders — it lands in the
#: shared ``other`` lane instead of being dropped.
KNOWN_CATS: tuple[str, ...] = ("sched", "sim")

#: Lane name unknown categories are grouped under.
OTHER_LANE = "other"


def events_to_jsonl(events: Iterable[Event]) -> str:
    """Serialise events as JSON Lines (one object per line)."""
    return "\n".join(
        json.dumps(e.to_dict(), separators=(",", ":")) for e in events)


def write_events_jsonl(events: Iterable[Event], path: str | os.PathLike) -> None:
    """Write the JSONL log to ``path`` (trailing newline included)."""
    text = events_to_jsonl(events)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if text:
            fh.write("\n")


def to_chrome_trace(events: Sequence[Event]) -> dict:
    """Convert events to the Chrome trace-event format (JSON object form).

    Deterministic for a deterministic event sequence: pids are assigned
    by lane in order of first appearance.  Known categories
    (:data:`KNOWN_CATS`) each get their own lane; every unknown category
    shares one ``other`` lane — unknown events are rendered and counted,
    never silently dropped.  The record's ``cat`` field always keeps the
    original category.
    """
    pids: dict[str, int] = {}
    trace_events: list[dict] = []
    for e in events:
        lane = e.cat if e.cat in KNOWN_CATS else OTHER_LANE
        pid = pids.get(lane)
        if pid is None:
            pid = len(pids)
            pids[lane] = pid
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": lane},
            })
        tid = e.args.get("tid", 0)
        ts = e.ts if e.ts is not None else float(e.seq)
        record: dict = {
            "name": e.name,
            "cat": e.cat,
            "pid": pid,
            "tid": tid,
            "ts": ts,
            "args": {k: v for k, v in e.args.items() if k != "tid"},
        }
        if e.dur is not None:
            record["ph"] = "X"
            record["dur"] = e.dur
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[Event], path: str | os.PathLike) -> None:
    """Write a ``chrome://tracing``-loadable JSON file to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_chrome_trace(events), fh, separators=(",", ":"))
        fh.write("\n")


def format_trace(events: Sequence[Event]) -> str:
    """A terminal summary of an event stream: one line per lane (known
    categories in :data:`KNOWN_CATS` order, then ``other`` covering every
    unknown category) with its top event names, plus a totals line whose
    count includes **every** event — lanes and totals always agree.
    """
    by_lane: dict[str, list[Event]] = {}
    for e in events:
        lane = e.cat if e.cat in KNOWN_CATS else OTHER_LANE
        by_lane.setdefault(lane, []).append(e)
    lines = []
    lanes = [c for c in KNOWN_CATS if c in by_lane]
    if OTHER_LANE in by_lane:
        lanes.append(OTHER_LANE)
    for lane in lanes:
        lane_events = by_lane[lane]
        names: dict[str, int] = {}
        for e in lane_events:
            names[e.name] = names.get(e.name, 0) + 1
        top = sorted(names.items(), key=lambda kv: (-kv[1], kv[0]))[:4]
        detail = ", ".join(f"{name}={count}" for name, count in top)
        if len(names) > 4:
            detail += ", ..."
        suffix = ""
        if lane == OTHER_LANE:
            cats = sorted({e.cat for e in lane_events})
            suffix = f" [cats: {', '.join(cats)}]"
        lines.append(f"{lane:<8} {len(lane_events):>7} events"
                     f"  ({detail}){suffix}")
    lines.append(f"{'total':<8} {len(events):>7} events"
                 f" in {len(lanes)} lanes")
    return "\n".join(lines)
