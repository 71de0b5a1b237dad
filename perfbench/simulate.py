"""``simulate``: the SMS and TMS pipelined loops of the population, each
run through ``Session.simulate`` at the golden trip count.  The kernels are
compiled during set-up.  One op is one simulation; a pass is every kernel
through a fresh session (so timing templates are rebuilt each pass)."""

from __future__ import annotations

import time
from typing import Any

from . import checks
from .harness import (MIN_OPS, Spans, digest, end_to_end, layer_spans,
                      peak_rss_mb, timed_passes, trace_overhead)
from .hostclock import HostClock
from .inputs import SIM_ITERATIONS, SIM_SEED, population
from .layers import layer_metrics

#: repeats per path in the exact-vs-fast A/B (best of, in reference
#: seconds)
AB_REPEATS = 2
#: the fast path should gain at least this much over the exact loop
AB_MIN_GAIN = 1.1


def setup(pairs: list) -> list[tuple[str, Any, Any]]:
    """Compile the population; ``(kernel/ALG, AlgResult, loop)`` per
    simulation.  Then simulate the smallest kernel once, so that no timed
    op pays the process's lazy set-up: the first simulation in a process
    takes ~20 ms more, and which kernel comes first depends on the seed."""
    from repro.session import Session

    session = Session(jobs=1)
    kernels = []
    for _bench, loop in pairs:
        compiled = session.compile(loop)
        kernels.append((f"{loop.name}/SMS", compiled.sms, loop))
        kernels.append((f"{loop.name}/TMS", compiled.tms, loop))
    smallest = min(kernels, key=lambda k: (len(k[2].body), k[0]))
    _simulate(Session(jobs=1), smallest[1])
    return kernels


def _simulate(session: Any, alg: Any) -> dict:
    return session.simulate(alg, iterations=SIM_ITERATIONS,
                            seed=SIM_SEED).to_dict()


def _check(kernels: list, outputs: list[dict]) -> tuple[list[str], str]:
    from repro.config import ArchConfig
    from repro.machine import ResourceModel

    resources = ResourceModel.default(ArchConfig.paper_default().issue_width)
    stats = outputs[0]
    errors = []
    if any(later != stats for later in outputs[1:]):
        errors.append("SimStats differ between passes")
    errors += checks.check_sim_golden(stats)
    for key, alg, loop in kernels:
        errors += checks.check_schedule(loop, key, alg, resources)
    return errors, digest(sorted(stats.items()))


def _exact_vs_fast(kernels: list) -> tuple[list, list[str]]:
    """Same-run A/B: every kernel through the fast path and the exact
    event loop, ``AB_REPEATS`` times each, with identical ``SimStats``
    required.  Returns ``(rows, errors)``; a row holds each path's
    ``perf_counter`` intervals."""
    from repro.config import SimConfig
    from repro.session import Session

    session = Session(jobs=1)
    rows, errors = [], []
    for key, alg, _loop in kernels:
        _simulate(session, alg)              # build the timing template
        times: dict[bool, list] = {False: [], True: []}
        out = {}
        for _ in range(AB_REPEATS):
            for exact in (False, True):
                cfg = SimConfig(iterations=SIM_ITERATIONS,
                                seed=SIM_SEED, exact=exact)
                t0 = time.perf_counter()
                out[exact] = session.simulate(alg, sim=cfg).to_dict()
                times[exact].append((t0, time.perf_counter()))
        if out[False] != out[True]:
            errors.append(f"{key}: fast-path SimStats differ from exact")
        rows.append((key, times[False], times[True]))
    return rows, errors


def run(seed: int, seconds: float, trace: bool, *,
        pairs: list | None = None, min_ops: int = MIN_OPS) -> dict[str, Any]:
    with HostClock() as clock:
        t0 = time.perf_counter()
        pairs = pairs if pairs is not None else population(seed)
        kernels = setup(pairs)
        setup_interval = (t0, time.perf_counter())
        items = [(key, alg) for key, alg, _loop in kernels]
        if not trace:
            res = timed_passes(items, _simulate, seconds, min_ops)
        else:
            plain = timed_passes(items, _simulate, seconds / 2, 1)
            spans = Spans()
            with layer_spans(spans):
                res = timed_passes(items, _simulate, seconds / 2, 1, spans)
            rows, ab_errors = _exact_vs_fast(kernels)

    if not trace:
        rss = peak_rss_mb()
        errors, out_digest = _check(kernels, res["outputs"])
        metrics, host, samples = end_to_end(
            clock, res["intervals"], res["window"], [setup_interval], rss,
            f"ops ({res['passes']} passes)",
            "set-up (population compile and one warm-up simulation)",
            "1 process")
        return {"metrics": metrics, "host": host, "samples": samples,
                "errors": errors, "digest": out_digest,
                "failures": res["failures"], "attempted": res["attempted"],
                "speed": clock.speed()}

    errors, out_digest = _check(kernels, res["outputs"])
    errors += ab_errors
    spans.clock = clock
    metrics = layer_metrics(spans, res["counter_total"],
                            len(res["intervals"]), res["passes"])
    best = [(key, min(clock.seconds(*iv) for iv in fast),
             min(clock.seconds(*iv) for iv in exact))
            for key, fast, exact in rows]
    slow = [key for key, fast, exact in best if exact / fast < AB_MIN_GAIN]
    metrics.update({
        "spmt.fast_over_exact": sum(r[2] for r in best)
        / sum(r[1] for r in best),
        "spmt.kernels_below_1p1x": float(len(slow)),
        "spmt.sim_cycles": sum(s["total_cycles"]
                               for s in res["outputs"][0].values()),
        "obs.trace_overhead_frac": trace_overhead(clock, plain, res),
    })
    print(f"{'simulation':<22} {'fast_ms':>9} {'exact_ms':>9} {'gain':>7}")
    for key, fast, exact in best:
        print(f"{key:<22} {1e3 * fast:>9.3f} {1e3 * exact:>9.3f} "
              f"{exact / fast:>6.2f}x")
    print(f"fast path gains < {AB_MIN_GAIN}x on {len(slow)} of "
          f"{len(best)}: {', '.join(slow) or '-'}")
    return {"metrics": metrics, "errors": errors, "digest": out_digest,
            "failures": plain["failures"] + res["failures"],
            "attempted": plain["attempted"] + res["attempted"],
            "speed": clock.speed()}
