"""``serve``: a closed loop of small compile and simulate requests over
one connection, against a ``tms-experiments serve`` daemon in its own
process.  One op is one request.

One connection, not two: with two, cached requests wait for the daemon's
interpreter lock while its single executor computes, and on a 2-vCPU host
the run-to-run p50 swung 2.4-5.3 ms (spread 0.59 of its median).  The
client and the daemon share one CPU (see ``run``)."""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterator

from . import checks
from .harness import (MIN_OPS, ROOT, Spans, digest, end_to_end, peak_rss_mb,
                      quantile, ratio, trace_overhead)
from .hostclock import HostClock
from .inputs import request_stream
from .layers import layer_metrics

#: daemon starts per run (median reported)
SETUP_REPEATS = 5
#: where daemon logs and span files go (inside the checkout, git-ignored)
WORK_DIR = ROOT / ".perfbench"
READY_TIMEOUT = 60.0


class Daemon:
    """One serve daemon process: started, then stopped and waited for."""

    def __init__(self, spans_out: Path | None = None) -> None:
        from repro.serve import ServeClient, wait_ready

        WORK_DIR.mkdir(exist_ok=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if spans_out is None:
            argv = [sys.executable, "-m", "repro.experiments"]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "daemon.py"),
                    str(spans_out)]
        argv += ["serve", "--port", "0", "--jobs", "1"]
        self._log = open(WORK_DIR / "daemon.log", "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env, cwd=ROOT)
        try:
            line = self.proc.stdout.readline().decode()
            if "listening on" not in line:
                raise RuntimeError(f"serve daemon did not start: {line!r}")
            host, _, port = line.split("listening on ")[1].split()[0] \
                .rpartition(":")
            self.client = ServeClient(host, int(port), timeout=120.0)
            if not wait_ready(self.client, timeout=READY_TIMEOUT):
                raise RuntimeError("serve daemon never became ready")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=30)
            except Exception:  # noqa: BLE001 — fall back to a signal
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def _closed_loop(client: Any, stream: Iterator[tuple[str, dict]],
                 seconds: float, min_ops: int,
                 spans: Spans | None = None) -> dict[str, Any]:
    """One client connection sending its next request when the previous
    one is answered, until ``seconds`` have elapsed and ``min_ops``
    requests completed, or a request failed.  ``intervals`` holds each
    answered request's ``perf_counter`` interval, ``served`` how it was
    served; ``prefix`` holds the responses to the first ``min_ops``
    requests, which every run of the same seed sends, whatever its
    length."""
    intervals: list[tuple[float, float]] = []
    served: list[str] = []
    bodies: dict[str, tuple[dict, bytes]] = {}
    prefix: list[bytes] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while not failures and (time.perf_counter() - start < seconds
                            or len(intervals) < min_ops):
        key, request = next(stream)
        attempted += 1
        t0 = time.perf_counter()
        try:
            if spans is None:
                outcome = client.submit(request, raise_on_reject=False)
            else:
                with spans.span("serve.request", key=key):
                    outcome = client.submit(request, raise_on_reject=False)
        except Exception as exc:  # noqa: BLE001 — counted as failed op
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        if not outcome.ok:
            failures.append(f"{outcome.status}: {outcome.response}")
            continue
        intervals.append((t0, t1))
        served.append(outcome.served)
        if len(prefix) < min_ops:
            prefix.append(outcome.body)
        first = bodies.setdefault(key, (request, outcome.body))
        if first[1] != outcome.body:
            failures.append("repeated request answered with different "
                            "bytes")
    return {"intervals": intervals, "served": served,
            "window": (start, time.perf_counter()),
            "bodies": bodies, "prefix": prefix, "failures": failures,
            "attempted": attempted}


def _served_p50(clock: HostClock, res: dict, served: str) -> float:
    times = [clock.seconds(*iv)
             for iv, how in zip(res["intervals"], res["served"])
             if how == served]
    return 1e3 * statistics.median(times) if times else 0.0


def run(seed: int, seconds: float, trace: bool, *,
        min_ops: int = MIN_OPS) -> dict[str, Any]:
    # a traced run spends half its time untraced, half traced
    loop_seconds = seconds / 2 if trace else seconds
    # the client's own imports are not part of the daemon's start
    import repro.serve  # noqa: F401
    # the client and the daemons it starts share one CPU, so that the
    # clock's speed samples, taken in the client, are of the CPU the daemon
    # runs on; in a closed loop over one connection only one of the two
    # works at a time
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    daemon = None
    try:
        with HostClock() as clock:
            setups = []
            for _ in range(SETUP_REPEATS):
                if daemon is not None:
                    daemon.stop()
                t0 = time.perf_counter()
                stream = request_stream(seed)
                daemon = Daemon()
                setups.append((t0, time.perf_counter()))
            res = _closed_loop(daemon.client, stream, loop_seconds, min_ops)
            rss = daemon.peak_rss_mb()
            stats = daemon.client.stats()
            if trace:
                daemon.stop()
                spans_out = WORK_DIR / f"daemon-spans-{os.getpid()}.json"
                spans = Spans()
                daemon = Daemon(spans_out)
                traced = _closed_loop(daemon.client, request_stream(seed),
                                      loop_seconds, min_ops, spans)
    finally:
        if daemon is not None:
            daemon.stop()
        os.sched_setaffinity(0, cpus)
    out_digest = digest(body.decode() for body in res["prefix"])

    if not trace:
        errors = checks.check_responses(res["bodies"])
        metrics, host, samples = end_to_end(
            clock, res["intervals"], res["window"], setups, rss, "requests",
            "daemon starts", "1 daemon process")
        _print_mix(res, stats)
        return {"metrics": metrics, "host": host, "samples": samples,
                "errors": errors, "digest": out_digest,
                "failures": res["failures"], "attempted": res["attempted"],
                "speed": clock.speed()}

    spans.extend(json.loads(spans_out.read_text()))
    spans_out.unlink()
    spans.clock = clock
    bodies = {**traced["bodies"], **res["bodies"]}
    errors = checks.check_responses(bodies)
    errors += [f"traced and untraced daemons answered {key} differently"
               for key, (_req, body) in traced["bodies"].items()
               if bodies[key][1] != body]
    metrics = layer_metrics(spans, {}, len(traced["intervals"]), 1)
    cache = stats["cache"]
    metrics.update({
        "serve.cached_ms_p50": _served_p50(clock, res, "cached"),
        "serve.computed_ms_p50": _served_p50(clock, res, "computed"),
        "serve.op_ms_p99": 1e3 * quantile(
            [clock.seconds(*iv) for iv in res["intervals"]], 99),
        "session.cache_hit_ratio": ratio(cache["hits"],
                                         cache["hits"] + cache["misses"]),
        "obs.trace_overhead_frac": trace_overhead(clock, res, traced),
    })
    _print_mix(res, stats)
    return {"metrics": metrics, "errors": errors, "digest": out_digest,
            "failures": res["failures"] + traced["failures"],
            "attempted": res["attempted"] + traced["attempted"],
            "speed": clock.speed()}


def _print_mix(res: dict, stats: dict) -> None:
    served: dict[str, int] = {}
    for how in res["served"]:
        served[how] = served.get(how, 0) + 1
    print(f"requests by outcome: {dict(sorted(served.items()))}; "
          f"{len(res['bodies'])} distinct; daemon counts "
          f"{json.dumps(stats['counts'], sort_keys=True)}")
