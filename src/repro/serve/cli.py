"""``tms-experiments serve`` / ``tms-experiments submit``.

``serve`` runs the daemon in the foreground until SIGTERM/SIGINT or an
in-band ``/shutdown``, then prints the request tally; its run-ledger
record (appended by :func:`repro.experiments.runner.main`) carries the
same tally in ``extra``.  ``submit`` sends one request to a running
daemon and exits with a typed code (:data:`~repro.serve.protocol.
EXIT_OK` / ``EXIT_ERROR`` / ``EXIT_REJECTED`` / ``EXIT_UNAVAILABLE``)
so shell pipelines and CI can branch on the outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..errors import ProtocolError, ServerUnavailable
from .protocol import (
    EXIT_ERROR,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_UNAVAILABLE,
    KINDS,
    POLICIES,
    ServeRequest,
)

__all__ = ["add_serve_arguments", "add_submit_arguments",
           "run_serve_command", "run_submit_command"]

DEFAULT_PORT = 8437


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"bind port; 0 picks a free one "
                             f"(default: {DEFAULT_PORT})")
    parser.add_argument("--jobs", type=int, default=None,
                        help="the session's worker processes (default: "
                             "$REPRO_JOBS or sequential); changes "
                             "nothing: a request is one task, which "
                             "never fans out")


def add_submit_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("path", help="loop source file (repro.ir.dsl "
                                     "syntax), or - for stdin")
    parser.add_argument("--server", default=f"127.0.0.1:{DEFAULT_PORT}",
                        help=f"daemon address host:port (default: "
                             f"127.0.0.1:{DEFAULT_PORT})")
    parser.add_argument("--kind", choices=KINDS, default="simulate",
                        help="unit of work (default: simulate)")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--unroll", type=int, default=1,
                        help="unroll factor (thread granularity)")
    parser.add_argument("--iterations", type=int, default=500,
                        help="simulated trip count (simulate)")
    parser.add_argument("--seed", type=int, default=0xACE5,
                        help="simulator seed (simulate)")
    parser.add_argument("--policy", choices=POLICIES, default="tms",
                        help="kernel to simulate (default: tms)")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline in seconds")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="client-side HTTP timeout (default: 300)")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="also write the raw response JSON to a file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the human-readable summary")


def run_serve_command(ns: argparse.Namespace) -> int:
    from ..session import Session
    from .broker import MAX_QUEUE_DEPTH, RequestBroker
    from .server import ServeDaemon

    broker = RequestBroker(session=Session(jobs=ns.jobs))
    daemon = ServeDaemon(ns.host, ns.port, broker=broker,
                         install_signal_handlers=True)
    daemon.start()
    print(f"[serve] listening on {daemon.address} "
          f"(queue depth {MAX_QUEUE_DEPTH}); SIGTERM or POST /shutdown "
          f"to stop", flush=True)
    daemon.wait()
    drained = daemon.drained
    print(f"[serve] stopped ({'drained' if drained else 'drain timed out'}); "
          f"{broker.summary()}", flush=True)
    # surfaced into the run-ledger record by the entry point
    ns.serve_summary = dict(broker.counts)
    return 0 if drained else 1


def run_submit_command(ns: argparse.Namespace) -> int:
    from .client import ServeClient

    if ns.path == "-":
        source = sys.stdin.read()
    else:
        path = Path(ns.path)
        if not path.exists():
            print(f"error: no such loop source file: {path}",
                  file=sys.stderr)
            return 2
        source = path.read_text(encoding="utf-8")
    try:
        request = ServeRequest(kind=ns.kind, source=source, cores=ns.cores,
                               unroll=ns.unroll, iterations=ns.iterations,
                               seed=ns.seed, policy=ns.policy,
                               deadline_seconds=ns.deadline)
        with ServeClient.from_address(ns.server,
                                      timeout=ns.timeout) as client:
            outcome = client.submit(request, raise_on_reject=False)
    except ProtocolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ServerUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNAVAILABLE

    if ns.json_out:
        out = Path(ns.json_out)
        if out.parent and not out.parent.exists():
            out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(outcome.body + b"\n")
        print(f"[response -> {out}]", file=sys.stderr)

    response = outcome.response
    if outcome.status == "rejected":
        print(f"rejected: {response.get('reason', 'unknown')} "
              f"(request {response.get('request_id', '?')})",
              file=sys.stderr)
        return EXIT_REJECTED
    if outcome.status != "ok":
        print(f"error: {response.get('error', 'unknown server error')}",
              file=sys.stderr)
        return EXIT_ERROR
    if not ns.quiet:
        _print_summary(response, outcome.served)
    return EXIT_OK


def _print_summary(response: dict, served: str) -> None:
    result = response.get("result", {})
    print(f"request {response['request_id']} (served: {served})")
    if result.get("kind") == "compile":
        algs = result.get("algorithms", {})
        line = ", ".join(f"{name}: II={alg['ii']} C_delay={alg['c_delay']} "
                         f"max_live={alg['max_live']}"
                         for name, alg in sorted(algs.items()))
        print(f"{result.get('loop', '?')}: {result.get('n_inst', '?')} inst, "
              f"MII={result.get('mii', '?')}; {line}")
    elif result.get("kind") == "simulate":
        stats = result.get("stats", {})
        print(f"{result.get('loop', '?')} [{result.get('policy', '?')}]: "
              f"II={result.get('ii', '?')} "
              f"C_delay={result.get('c_delay', '?')}; "
              f"{stats.get('total_cycles', '?')} cycles / "
              f"{stats.get('iterations', '?')} iterations "
              f"({stats.get('cycles_per_iteration', 0):.2f} cyc/iter, "
              f"misspec {100 * stats.get('misspec_frequency', 0.0):.3f}%)")
    else:  # pragma: no cover — future kinds
        print(json.dumps(result, sort_keys=True, indent=2))
