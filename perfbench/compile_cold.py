"""``compile-cold``: every kernel of the population compiled (SMS + TMS +
post-pass) through a fresh memory-only ``Session.compile``.  One op is one
kernel; a pass is the whole population; a run is whole passes."""

from __future__ import annotations

import time
from typing import Any

from . import checks
from .harness import (MIN_OPS, Spans, digest, end_to_end, layer_spans,
                      peak_rss_mb, timed_passes, trace_overhead)
from .hostclock import HostClock
from .inputs import population
from .layers import layer_metrics

#: set-ups per run (median reported); one set-up takes ~50 ms
SETUP_REPEATS = 15


def _compile(session: Any, loop: Any) -> Any:
    return session.compile(loop)


def _setup(seed: int) -> list:
    """Generate the population, then compile its smallest kernel once so
    that no timed op pays the process's lazy set-up: the first compile in
    a process takes ~20 ms more, and which kernel comes first depends on
    the seed."""
    from repro.session import Session

    pairs = population(seed)
    _compile(Session(jobs=1),
             min(pairs, key=lambda p: (len(p[1].body), p[1].name))[1])
    return pairs


def _check(pairs: list, outputs: list[dict]) -> tuple[list, str]:
    """Check the schedules; return ``(errors, digest)``."""
    from repro.config import ArchConfig
    from repro.machine import ResourceModel

    resources = ResourceModel.default(ArchConfig.paper_default().issue_width)
    first = outputs[0]
    records = {name: checks.schedule_record(c) for name, c in first.items()}
    errors: list[str] = []
    for later in outputs[1:]:
        if {n: checks.schedule_record(c) for n, c in later.items()} \
                != records:
            errors.append("schedules differ between passes")
    errors += checks.check_sched_golden(records)
    for _bench, loop in pairs:
        if loop.name in first:
            for alg in ("SMS", "TMS"):
                errors += checks.check_schedule(
                    loop, f"{loop.name}/{alg}",
                    getattr(first[loop.name], alg.lower()), resources)
    return errors, digest(sorted(records.items()))


def run(seed: int, seconds: float, trace: bool, *,
        pairs: list | None = None, min_ops: int = MIN_OPS) -> dict[str, Any]:
    with HostClock() as clock:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            generated = _setup(seed)
            setups.append((t0, time.perf_counter()))
        pairs = pairs if pairs is not None else generated
        items = [(loop.name, loop) for _bench, loop in pairs]
        if not trace:
            res = timed_passes(items, _compile, seconds, min_ops)
        else:
            plain = timed_passes(items, _compile, seconds / 2, 1)
            spans = Spans()
            with layer_spans(spans):
                res = timed_passes(items, _compile, seconds / 2, 1, spans)

    if not trace:
        rss = peak_rss_mb()
        errors, out_digest = _check(pairs, res["outputs"])
        metrics, host, samples = end_to_end(
            clock, res["intervals"], res["window"], setups, rss,
            f"ops ({res['passes']} passes)", "set-ups", "1 process")
        return {"metrics": metrics, "host": host, "samples": samples,
                "errors": errors, "digest": out_digest,
                "failures": res["failures"], "attempted": res["attempted"],
                "speed": clock.speed()}

    errors, out_digest = _check(pairs, res["outputs"])
    spans.clock = clock
    metrics = layer_metrics(spans, res["counter_total"],
                            len(res["intervals"]), res["passes"])
    metrics["obs.trace_overhead_frac"] = trace_overhead(clock, plain, res)
    _print_kernel_rows(spans, res, items)
    return {"metrics": metrics, "errors": errors, "digest": out_digest,
            "failures": plain["failures"] + res["failures"],
            "attempted": plain["attempted"] + res["attempted"],
            "speed": clock.speed()}


def _print_kernel_rows(spans: Spans, res: dict, items: list) -> None:
    """Per-kernel layer seconds (mean over traced passes), TMS candidates
    and the fallback flag: the lucas kernels dominate every total."""
    by_key = spans.by_key()
    first = res["outputs"][0]
    passes = res["passes"]
    layers = ("graph.build", "sched.sms", "sched.tms", "sched.postpass",
              "session.compile")
    print(f"{'kernel':<16} {'total_s':>8} {'graph_s':>8} {'sms_s':>8} "
          f"{'tms_s':>8} {'post_s':>8} {'sess_s':>8} {'cands':>6} fallback")
    for name, _loop in items:
        if name not in first:
            continue
        row = by_key.get(name, {})
        cands = res["counters"].get(name, {}).get("tms.candidates", 0)
        fallback = first[name].tms.schedule.meta.get("fallback")
        print(f"{name:<16} {sum(row.values()) / passes:>8.4f} "
              + " ".join(f"{row.get(s, 0.0) / passes:>8.4f}" for s in layers)
              + f" {cands:>6} {'yes' if fallback else 'no'}")
