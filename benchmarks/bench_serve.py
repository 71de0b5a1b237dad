"""Serve daemon latency: warm server vs cold process, burst percentiles.

Three measurements, all against a daemon embedded in this process (real
HTTP over loopback, so the numbers include protocol cost):

- **cold process**: one fresh ``Session`` compile+simulate per request —
  the cost a shell loop around ``tms-experiments compile`` pays every
  time (interpreter startup excluded, so this *understates* the cold
  side and the warm/cold ratio is conservative);
- **warm server**: the same request against a running daemon whose
  session and caches stay hot — the first request
  computes, the rest measure the served path;
- **burst**: N concurrent client threads firing a small request mix at
  once; reports p50/p95 response latency under coalescing and
  admission control.

Standalone, for CI and local runs::

    PYTHONPATH=src python benchmarks/bench_serve.py --quick \
        --out obs/bench-serve.json

Also collectable by the pytest-benchmark harness like its siblings::

    pytest benchmarks/bench_serve.py --benchmark-only -s
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from pathlib import Path

#: the reference loop every request carries (same kernel family as the
#: repo-wide AXPY fixture)
AXPY_SRC = """
loop axpy
array X 64
array Y 64
livein a 2.0
livein s 0.0
n0: x = load X[i]
n1: t = fmul x, a
n2: y = load Y[i]
n3: r = fadd t, y
n4: store Y[i], r
n5: s = fadd s, r
"""

BURST_SIZE = 32


def _request(**kw):
    from repro.serve import ServeRequest
    base = dict(kind="simulate", source=AXPY_SRC, iterations=200)
    base.update(kw)
    return ServeRequest(**base)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def measure_cold_process(repeats: int) -> list[float]:
    """Per-request seconds when every request pays a fresh session
    (no warm cache) — the no-daemon baseline."""
    from repro.serve.broker import execute_request
    from repro.session import Session

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        execute_request(Session(jobs=1), _request())
        samples.append(time.perf_counter() - start)
    return samples


def measure_serve(repeats: int) -> dict:
    """Warm-server latencies plus a burst profile, one daemon for all."""
    from repro.serve import ServeClient, ServeDaemon, wait_ready

    daemon = ServeDaemon(port=0).start()
    try:
        with ServeClient("127.0.0.1", daemon.port,
                         timeout=120.0) as client:
            if not wait_ready(client, timeout=30.0):
                raise RuntimeError("serve daemon never became ready")

            start = time.perf_counter()
            first = client.submit(_request())
            first_seconds = time.perf_counter() - start
            assert first.ok, first.response

            warm = []
            for _ in range(repeats):
                start = time.perf_counter()
                out = client.submit(_request())
                warm.append(time.perf_counter() - start)
                assert out.ok and out.served == "cached", out.served

            # burst: concurrent threads over a small request mix, so the
            # daemon sees coalescible duplicates AND distinct work at once
            variants = [_request(), _request(iterations=400),
                        _request(kind="compile"), _request(cores=2)]
            latencies = [0.0] * BURST_SIZE
            errors: list[str] = []

            def fire(i: int) -> None:
                begin = time.perf_counter()
                try:
                    out = client.submit(variants[i % len(variants)])
                    if not out.ok:
                        errors.append(out.response.get("error", out.status))
                except Exception as exc:  # noqa: BLE001 — recorded, reported
                    errors.append(str(exc))
                latencies[i] = time.perf_counter() - begin

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(BURST_SIZE)]
            burst_start = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            burst_seconds = time.perf_counter() - burst_start
            if errors:
                raise RuntimeError(f"burst produced errors: {errors[:3]}")

            ordered = sorted(latencies)
            stats = daemon.broker.stats()
            return {
                "first_request_seconds": first_seconds,
                "warm_samples": warm,
                "warm_seconds": min(warm),
                "burst_size": BURST_SIZE,
                "burst_wall_seconds": burst_seconds,
                "burst_p50_seconds": _percentile(ordered, 0.50),
                "burst_p95_seconds": _percentile(ordered, 0.95),
                "server_counts": stats["counts"],
                "cache": {"hits": stats["cache"]["hits"],
                          "misses": stats["cache"]["misses"]},
            }
    finally:
        daemon.stop(drain_timeout=30.0)


def measure(repeats: int = 5) -> dict:
    cold = measure_cold_process(repeats)
    serve = measure_serve(repeats)
    report = {
        "repeats": repeats,
        "cold_process_samples": cold,
        "cold_process_seconds": min(cold),
        **serve,
    }
    cold_s, warm_s = report["cold_process_seconds"], report["warm_seconds"]
    report["warm_speedup_over_cold"] = (cold_s / warm_s) if warm_s > 0 \
        else None
    return report


def render(report: dict) -> str:
    lines = [
        f"cold process: {1e3 * report['cold_process_seconds']:.2f} ms/request "
        f"(best of {report['repeats']})",
        f"warm server:  {1e3 * report['warm_seconds']:.2f} ms/request "
        f"(first request {1e3 * report['first_request_seconds']:.2f} ms)",
        f"speedup: {report['warm_speedup_over_cold']:.1f}x warm over cold",
        f"burst of {report['burst_size']}: "
        f"p50 {1e3 * report['burst_p50_seconds']:.2f} ms, "
        f"p95 {1e3 * report['burst_p95_seconds']:.2f} ms, "
        f"wall {1e3 * report['burst_wall_seconds']:.2f} ms",
        f"server counts: {report['server_counts']}",
    ]
    return "\n".join(lines)


def test_bench_serve(benchmark):
    """pytest-benchmark entry: one quick pass, printed with -s."""
    report = benchmark.pedantic(measure, kwargs={"repeats": 2},
                                rounds=1, iterations=1)
    print("\n" + render(report))
    assert report["warm_seconds"] > 0
    assert report["server_counts"]["errors"] == 0
    # the warm path must actually beat paying a cold session per request
    assert report["warm_seconds"] < report["cold_process_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats (CI mode)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override repeats (default 5; --quick => 2)")
    parser.add_argument("--out", default=None,
                        help="write the JSON report here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless warm beats cold by this ratio")
    args = parser.parse_args()

    repeats = args.repeats if args.repeats is not None \
        else (2 if args.quick else 5)
    start = time.perf_counter()
    report = measure(repeats=repeats)
    report["quick"] = bool(args.quick)
    print(render(report))
    # one run-ledger record per invocation (no-op unless REPRO_LEDGER_DIR
    # is set); the report CLI renders/gates on these.
    import sys

    from repro.obs.ledger import append_run_record
    append_run_record(
        "bench_serve", sys.argv[1:],
        duration_seconds=time.perf_counter() - start,
        extra={"cold_process_seconds": report["cold_process_seconds"],
               "warm_seconds": report["warm_seconds"],
               "warm_speedup_over_cold": report["warm_speedup_over_cold"],
               "burst_p50_seconds": report["burst_p50_seconds"],
               "burst_p95_seconds": report["burst_p95_seconds"]})
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"[json report written to {out}]")
    if args.min_speedup is not None:
        speedup = report.get("warm_speedup_over_cold")
        if speedup is None or speedup < args.min_speedup:
            print(f"FAIL: warm speedup {speedup} below --min-speedup "
                  f"{args.min_speedup}")
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
