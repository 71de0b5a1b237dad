"""Per-layer metrics of a traced run, from its spans and registry counters.

Span-derived times are mean self reference seconds per op (see
hostclock.py), so the layers of one op add up to its mean latency.  Counters are per pass over the population.
Metrics of layers a workload does not exercise read 0.
"""

from __future__ import annotations

from .harness import PER_LAYER, Spans, ratio


def layer_metrics(spans: Spans, counters: dict[str, float], ops: int,
                  passes: int) -> dict[str, float]:
    totals = spans.totals()
    steady = spans.totals(lambda r: r["name"] == "spmt.run"
                          and r["attrs"].get("misspeculations") == 0)
    run_s = totals.get("spmt.run", 0.0)
    steady_s = steady.get("spmt.run", 0.0)
    c = counters
    searches = c.get("tms.searches", 0)
    fallbacks = c.get("tms.fallbacks", 0)
    tables = c.get("sched.engine.window_tables", 0)
    reuses = c.get("sched.engine.window_reuses", 0)
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update({
        "graph.build_s": totals.get("graph.build", 0.0) / ops,
        "sched.sms_s": totals.get("sched.sms", 0.0) / ops,
        "sched.tms_s": totals.get("sched.tms", 0.0) / ops,
        "sched.postpass_s": totals.get("sched.postpass", 0.0) / ops,
        "session.compile_overhead_s":
            totals.get("session.compile", 0.0) / ops,
        "ir.parse_s": totals.get("ir.parse", 0.0) / ops,
        "spmt.template_s": totals.get("spmt.template", 0.0) / ops,
        "spmt.run_steady_s": steady_s / ops,
        "spmt.run_speculative_s": (run_s - steady_s) / ops,
        "session.simulate_overhead_s":
            totals.get("session.simulate", 0.0) / ops,
        "spmt.host_us_per_thread": 1e6 * ratio(run_s,
                                               c.get("sim.threads", 0)),
        "tms.candidates": c.get("tms.candidates", 0) / passes,
        "tms.fallbacks": fallbacks / passes,
        "tms.accept_ratio": ratio(searches - fallbacks,
                                  c.get("tms.candidates", 0)),
        "sched.engine.slot_probes":
            c.get("sched.engine.slot_probes", 0) / passes,
        "sched.probes_per_attempt": ratio(
            c.get("sched.engine.slot_probes", 0),
            c.get("sched.engine.attempts", 0)),
        "sched.window_reuse_ratio": ratio(reuses, tables + reuses),
        "sim.fastforward_thread_frac": ratio(
            c.get("sim.fastforward_threads", 0), c.get("sim.threads", 0)),
        "sim.violations": c.get("sim.violations", 0) / passes,
        "sim.squashed_threads": c.get("sim.squashed_threads", 0) / passes,
    })
    return metrics
