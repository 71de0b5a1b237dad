"""Shared benchmark machinery: metric tables, the in-memory span recorder,
the layer wrappers of the traced run, statistics and output digests."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent

#: every run carries at least this many ops, so p90 has >= 10 samples
#: beyond it.
MIN_OPS = 100

#: the benchmark's declared workloads and metrics (name, unit, better,
#: bound); every printed table and result line follows it
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: per-layer metric -> (end-to-end metrics it should move, workloads it
#: is measured on)
MOVES: dict[str, tuple[str, str]] = {
    "graph.build_s": ("op_ms_p50", "compile-cold"),
    "sched.sms_s": ("op_ms_p50, op_ms_geomean", "compile-cold"),
    "sched.tms_s": ("ops_per_s, op_ms_p90", "compile-cold"),
    "sched.postpass_s": ("op_ms_p50", "compile-cold"),
    "tms.candidates": ("ops_per_s, op_ms_p90", "compile-cold"),
    "tms.fallbacks": ("ops_per_s, op_ms_p90", "compile-cold"),
    "tms.accept_ratio": ("ops_per_s, op_ms_p90", "compile-cold"),
    "sched.engine.slot_probes": ("ops_per_s", "compile-cold"),
    "sched.probes_per_attempt": ("ops_per_s", "compile-cold"),
    "sched.window_reuse_ratio": ("ops_per_s", "compile-cold"),
    "session.compile_overhead_s": ("op_ms_p50", "compile-cold, serve"),
    "spmt.template_s": ("op_ms_p50, op_ms_geomean", "simulate"),
    "spmt.run_steady_s": ("op_ms_geomean", "simulate"),
    "spmt.run_speculative_s": ("ops_per_s, op_ms_p90", "simulate"),
    "spmt.host_us_per_thread": ("ops_per_s", "simulate"),
    "spmt.fast_over_exact": ("ops_per_s", "simulate"),
    "spmt.kernels_below_1p1x": ("ops_per_s", "simulate"),
    "sim.fastforward_thread_frac": ("nothing", "simulate"),
    "sim.violations": ("nothing", "simulate"),
    "sim.squashed_threads": ("nothing", "simulate"),
    "spmt.sim_cycles": ("nothing", "simulate"),
    "session.simulate_overhead_s": ("op_ms_p50", "simulate"),
    "serve.cached_ms_p50": ("op_ms_p50", "serve"),
    "serve.computed_ms_p50": ("ops_per_s, op_ms_p90", "serve"),
    "serve.op_ms_p99": ("nothing (tail, no bound)", "serve"),
    "session.cache_hit_ratio": ("ops_per_s", "serve"),
    "ir.parse_s": ("op_ms_p50", "serve"),
    "obs.trace_overhead_frac": ("nothing (tracing is off end to end)",
                                "all"),
}


def scrub_environment() -> None:
    """Drop ``REPRO_*`` variables so no caller setting (disk cache, jobs,
    exact simulation, metrics off) changes what is measured."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


# -- statistics ---------------------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile of ``values``, linearly interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(clock: HostClock, op_intervals: list[tuple[float, float]],
               window: tuple[float, float],
               setups: list[tuple[float, float]], rss_mb: float,
               op_label: str, setup_label: str, rss_label: str
               ) -> tuple[dict[str, float], dict[str, float],
                          dict[str, str]]:
    """Every end-to-end metric of one timed loop in reference seconds
    (``clock``), the same metrics in host wall seconds, and each metric's
    sample count.  Intervals are ``perf_counter`` readings."""
    def metrics(seconds: Callable[[float, float], float]) -> dict[str, float]:
        ops = [seconds(*iv) for iv in op_intervals]
        return {
            "setup_s": statistics.median(seconds(*iv) for iv in setups),
            "ops_per_s": len(ops) / seconds(*window),
            "op_ms_p50": 1e3 * statistics.median(ops),
            "op_ms_p90": 1e3 * quantile(ops, 90),
            "op_ms_geomean": 1e3 * statistics.geometric_mean(ops),
            "peak_rss_mb": rss_mb,
        }
    reference = metrics(clock.seconds)
    samples = dict.fromkeys(reference, f"{len(op_intervals)} {op_label}")
    samples.update(setup_s=f"{len(setups)} {setup_label}",
                   peak_rss_mb=rss_label)
    return reference, metrics(lambda t0, t1: t1 - t0), samples


def trace_overhead(clock: HostClock, plain: dict, traced: dict) -> float:
    """Untraced over traced throughput of two timed loops (``intervals``
    per op and the loop's ``window``), minus 1."""
    return ((len(plain["intervals"]) / clock.seconds(*plain["window"]))
            / (len(traced["intervals"]) / clock.seconds(*traced["window"]))
            - 1.0)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB: this process, or ``pid`` (Linux
    ``VmHWM``)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def digest(items: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of ``items``, in order."""
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True,
                            separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def counter_values() -> dict[str, float]:
    """Current value of every counter in the program's metrics registry."""
    from repro.obs.metrics import get_registry
    return {name: snap["value"]
            for name, snap in get_registry().snapshot().items()
            if snap.get("kind") == "counter"}


def counter_delta(before: dict[str, float], after: dict[str, float]
                  ) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if v != before.get(k, 0)}


def timed_passes(items: list[tuple[str, Any]],
                 op: Callable[[Any, Any], Any], seconds: float,
                 min_ops: int, spans: "Spans | None" = None
                 ) -> dict[str, Any]:
    """Whole passes over ``(key, item)`` pairs until ``seconds`` have
    elapsed and ``min_ops`` ops completed, or a pass had a failed op.
    Each pass runs ``op(session, item)`` for every item through a fresh
    memory-only ``Session(jobs=1)``.  With ``spans``, every op is a span
    and its registry counter deltas are kept by key.  Each op's
    ``perf_counter`` interval is kept, and so is the whole loop's
    (``window``)."""
    from repro.session import Session

    intervals: list[tuple[float, float]] = []
    outputs: list[dict[str, Any]] = []
    counters: dict[str, dict] = {}
    failures: list[str] = []
    before_all = counter_values()
    start = time.perf_counter()
    while True:
        session = Session(jobs=1)
        out: dict[str, Any] = {}
        for key, item in items:
            before = counter_values() if spans is not None else None
            t0 = time.perf_counter()
            try:
                if spans is None:
                    result = op(session, item)
                else:
                    with spans.span("op", key=key):
                        result = op(session, item)
            except Exception as exc:  # noqa: BLE001 — counted as failed op
                failures.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            intervals.append((t0, time.perf_counter()))
            out[key] = result
            if before is not None:
                counters[key] = counter_delta(before, counter_values())
        outputs.append(out)
        if failures or (time.perf_counter() - start >= seconds
                        and len(intervals) >= min_ops):
            break
    return {"intervals": intervals, "window": (start, time.perf_counter()),
            "outputs": outputs, "counters": counters,
            "counter_total": counter_delta(before_all, counter_values()),
            "failures": failures, "passes": len(outputs),
            "attempted": len(outputs) * len(items)}


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when the layer did no work."""
    return num / den if den else 0.0


# -- spans ----------------------------------------------------------------------

class Spans:
    """In-memory span recorder.

    Each span records its name, start, end, parent and the kernel or
    request id of the op it belongs to (inherited from the parent when not
    given).  Spans nest per thread.  ``self_seconds`` is a span's duration
    minus the time its children cover, in reference seconds of ``clock``:
    set it to the stopped :class:`HostClock` that ran while the spans were
    recorded before reading self times.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.clock: HostClock | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, key: str | None = None
             ) -> Iterator[dict[str, Any]]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        rec = {"name": name,
               "key": key if key is not None
               else (parent["key"] if parent else ""),
               "parent": parent["id"] if parent else None,
               "start": time.perf_counter(), "end": None, "attrs": {}}
        with self._lock:
            rec["id"] = len(self.records)
            self.records.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def self_seconds(self) -> list[dict[str, Any]]:
        """Each span with its ``self`` time filled in."""
        durations = [self.clock.seconds(rec["start"], rec["end"])
                     for rec in self.records]
        covered = [0.0] * len(self.records)
        for rec, duration in zip(self.records, durations):
            if rec["parent"] is not None:
                covered[rec["parent"]] += duration
        for rec, duration, child in zip(self.records, durations, covered):
            rec["self"] = duration - child
        return self.records

    def totals(self, predicate: Callable[[dict], bool] = lambda r: True
               ) -> dict[str, float]:
        """Self seconds summed by span name over matching spans."""
        out: dict[str, float] = {}
        for rec in self.self_seconds():
            if predicate(rec):
                out[rec["name"]] = out.get(rec["name"], 0.0) + rec["self"]
        return out

    def by_key(self) -> dict[str, dict[str, float]]:
        """Self seconds by op key, then span name."""
        out: dict[str, dict[str, float]] = {}
        for rec in self.self_seconds():
            row = out.setdefault(rec["key"], {})
            row[rec["name"]] = row.get(rec["name"], 0.0) + rec["self"]
        return out

    def extend(self, records: list[dict[str, Any]]) -> None:
        """Append spans recorded elsewhere (another process)."""
        with self._lock:
            base = len(self.records)
            for rec in records:
                rec = dict(rec, id=rec["id"] + base)
                if rec["parent"] is not None:
                    rec["parent"] += base
                self.records.append(rec)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records))


# -- layer wrappers ---------------------------------------------------------------
#
# The traced run times each layer from outside by wrapping the names the
# session and the compile pipeline look up at call time.  Nothing in the
# program changes; every wrapper is removed when the run ends.

#: (module, attribute, span): functions and classes called by name
_CALL_SITES = (
    ("repro.experiments.pipeline", "build_ddg", "graph.build"),
    ("repro.experiments.pipeline", "compute_mii", "graph.build"),
    ("repro.experiments.pipeline", "longest_dependence_path", "graph.build"),
    ("repro.experiments.pipeline", "strongly_connected_components",
     "graph.build"),
    ("repro.experiments.pipeline", "schedule_with_degradation", "sched.tms"),
    ("repro.experiments.pipeline", "run_postpass", "sched.postpass"),
    ("repro.experiments.pipeline", "max_live", "sched.postpass"),
    ("repro.experiments.pipeline", "achieved_c_delay", "sched.postpass"),
    ("repro.ir", "parse_loop", "ir.parse"),
    ("repro.spmt.channels", "KernelTimingTemplate", "spmt.template"),
)

#: (module, class, span): scheduler classes the pipeline builds and then
#: runs; construction and ``schedule()`` both count
_SCHEDULER_SITES = (
    ("repro.experiments.pipeline", "SwingModuloScheduler", "sched.sms"),
    ("repro.experiments.pipeline", "IterativeModuloScheduler", "sched.sms"),
)

#: (module, class, method, span): methods patched on the class
_METHOD_SITES = (
    ("repro.session.session", "Session", "compile", "session.compile"),
    ("repro.session.session", "Session", "compile_many", "session.compile"),
    ("repro.session.session", "Session", "simulate", "session.simulate"),
    ("repro.session.session", "Session", "simulate_many",
     "session.simulate"),
)


def _timed(fn: Callable, spans: Spans, name: str) -> Callable:
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _timed_scheduler(cls: type, spans: Spans, name: str) -> Callable:
    def build(*args, **kwargs):
        with spans.span(name):
            inst = cls(*args, **kwargs)
        inst.schedule = _timed(inst.schedule, spans, name)
        return inst
    return build


def _timed_run(fn: Callable, spans: Spans) -> Callable:
    def run(self, *args, **kwargs):
        with spans.span("spmt.run") as rec:
            stats = fn(self, *args, **kwargs)
            rec["attrs"]["misspeculations"] = stats.misspeculations
            return stats
    return run


@contextmanager
def layer_spans(spans: Spans) -> Iterator[Spans]:
    """Wrap every layer call site in a span for the duration of the
    block."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, value: Any) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, name in _CALL_SITES:
            mod = importlib.import_module(module)
            patch(mod, attr, _timed(getattr(mod, attr), spans, name))
        for module, attr, name in _SCHEDULER_SITES:
            mod = importlib.import_module(module)
            patch(mod, attr, _timed_scheduler(getattr(mod, attr), spans,
                                              name))
        for module, cls_name, method, name in _METHOD_SITES:
            cls = getattr(importlib.import_module(module), cls_name)
            patch(cls, method, _timed(getattr(cls, method), spans, name))
        sim_cls = importlib.import_module("repro.spmt.sim").SpMTSimulator
        patch(sim_cls, "run", _timed_run(sim_cls.run, spans))
        yield spans
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- reporting --------------------------------------------------------------------

def print_end_to_end(metrics: dict[str, float], host: dict[str, float],
                     samples: dict[str, str]) -> None:
    """``value`` is in reference seconds (the result line's), ``host`` the
    same metric in the host's wall seconds."""
    print(f"{'metric':<16} {'value':>14} {'host':>14} {'unit':<5} samples")
    for name, spec in END_TO_END.items():
        print(f"{name:<16} {metrics[name]:>14.6g} {host[name]:>14.6g} "
              f"{spec['unit']:<5} {samples[name]}")


def print_speed(speed: dict[str, float]) -> None:
    print(f"host speed / reference speed: median {speed['median']:.3f}, "
          f"range {speed['min']:.3f}-{speed['max']:.3f} "
          f"({speed['samples']} samples)")


def print_per_layer(workload: str, metrics: dict[str, float]) -> None:
    print(f"{'per-layer metric':<28} {'value':>14} {'unit':<6} "
          f"{'should move':<26} on")
    for name, spec in PER_LAYER.items():
        moves, on = MOVES[name]
        mark = "" if workload in on or on == "all" else "  (not this workload)"
        print(f"{name:<28} {metrics[name]:>14.6g} {spec['unit']:<6} "
              f"{moves:<26} {on}{mark}")


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, float], table: dict) -> str:
    """The JSON line that ends every run's output."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": spec["unit"]}
                    for name, spec in table.items()},
    })
