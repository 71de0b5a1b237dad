"""Command-line entry point: ``python -m repro.experiments`` /
``tms-experiments``.

Regenerates any (or all) of the paper's tables and figures:

    tms-experiments table1
    tms-experiments table2 --max-loops 5
    tms-experiments fig4 --max-loops 5 --iterations 300
    tms-experiments table3 fig5 fig6 speculation
    tms-experiments all --quick
    tms-experiments all --quick --jobs 4      # parallel fan-out
    tms-experiments all --quick --stats       # cache/metrics dump on stderr
    tms-experiments table2 --trace out/run    # JSONL + Chrome trace export
    tms-experiments validate --quick          # cost model vs simulator
    tms-experiments report --check --bench CHANGE --against PARENT

Everything routes through the process :class:`repro.session.Session`;
set ``REPRO_CACHE_DIR`` to persist compiled artifacts across runs (a
warm rerun recompiles nothing — the session report printed on stderr
shows the hit/miss counters) and ``REPRO_JOBS`` to default ``--jobs``.

``--stats`` dumps the session-cache counters and the full metrics
registry (:mod:`repro.obs.metrics`) to stderr.  ``--trace PREFIX``
enables structured event tracing (:mod:`repro.obs.events`) and writes
``PREFIX.jsonl`` (the event log) plus ``PREFIX.trace.json`` (Chrome
``chrome://tracing`` format) — deterministic for a given seed.  The
``validate`` subcommand compares the Section 4.2 cost model against the
simulator per kernel and reports aggregate MAPE
(:mod:`repro.experiments.validate`).  The ``report`` subcommand renders
the run ledger and, with ``--check``, gates perfbench result lines of a
change against its parent by ``BENCHMARK.json``'s bounds
(:mod:`repro.experiments.report_cli`).
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from pathlib import Path

from ..config import ArchConfig, SchedulerConfig
from .ablation import run_comm_latency_sweep, run_core_sweep, run_pmax_sweep
from .fig4 import render_fig4, run_fig4
from .fig5 import render_fig5, run_fig5
from .fig6 import render_fig6, run_fig6
from .report import format_table
from .speculation import render_speculation, run_speculation
from .table1 import table1
from .table2 import render_table2, run_table2
from .table3 import render_table3, run_table3

__all__ = ["main"]

#: the paper's tables and figures, as (name, help); any of them run
#: together in one suite invocation
_SUITE = (
    ("table1", "Table 1: the simulated architecture"),
    ("table2", "Table 2: SMS vs TMS over the synthetic SPECfp2000 suite"),
    ("table3", "Table 3: the DOACROSS loops and their TMS metrics"),
    ("fig4", "Figure 4: speedups of TMS over SMS"),
    ("fig5", "Figure 5: speedups of TMS over single-threaded code"),
    ("fig6", "Figure 6: synchronisation behaviour of TMS vs SMS"),
    ("speculation", "Section 5.2's speculation ablation"),
    ("ablation", "P_max, C_reg_com, core-count, granularity and loop-nest "
                 "sweeps"),
    ("all", "every table and figure above"),
)
_EXPERIMENTS = tuple(name for name, _help in _SUITE if name != "all")

#: the commands with parsers of their own, as (name, help)
_SUBCOMMANDS = (
    ("compile", "compile a DSL loop file with SMS and TMS and report "
                "schedules + simulated performance"),
    ("validate", "compare the Section 4.2 cost model against the "
                 "simulator per kernel and report aggregate MAPE"),
    ("chaos", "seeded fault-injection campaign: squash storms, "
              "operand-network jitter/loss, flaky spawns — every run "
              "checked against the trace invariant sanitizer"),
    ("report", "render the run ledger (REPRO_LEDGER_DIR) and compare "
               "perfbench result lines of a change with its parent's; "
               "--check gates on BENCHMARK.json's bounds"),
    ("serve", "run the long-lived compile/simulate daemon: warm caches, "
              "request coalescing, bounded admission control "
              "(docs/serving.md)"),
    ("submit", "send one compile/simulate request to a running serve "
               "daemon and print the result"),
)
_HELP = dict(_SUITE + _SUBCOMMANDS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tms-experiments",
        description="Regenerate the paper's tables/figures, or compile a "
                    "loop of your own.")
    sub = parser.add_subparsers(dest="command")
    comp = sub.add_parser("compile", help=_HELP["compile"])
    comp.add_argument("path", help="loop source file (repro.ir.dsl syntax)")
    comp.add_argument("--cores", type=int, default=4)
    comp.add_argument("--iterations", type=int, default=1000)
    comp.add_argument("--unroll", type=int, default=1,
                      help="unroll factor (thread granularity)")
    comp.add_argument("--json", dest="json_out", default=None,
                      help="also write the full report as JSON")
    comp.add_argument("--policy", default=None,
                      help="comma-separated scheduling policies to run "
                           "(tms, sms, ims, seq; default: sms,tms)")
    val = sub.add_parser("validate", help=_HELP["validate"])
    val.add_argument("--suite", choices=("table2", "table3", "both"),
                     default="table2",
                     help="kernel suite(s) to validate (default: table2)")
    val.add_argument("--max-loops", type=int, default=None)
    val.add_argument("--iterations", type=int, default=None)
    val.add_argument("--quick", action="store_true",
                     help="small populations and short runs")
    val.add_argument("--cores", type=int, default=4)
    val.add_argument("--seed", type=int, default=0xACE5)
    val.add_argument("--jobs", type=int, default=None)
    val.add_argument("--out", default=None,
                     help="also write the report as JSON (stable schema)")
    _add_obs_flags(val)
    chaos = sub.add_parser("chaos", help=_HELP["chaos"])
    from ..faults.cli import add_chaos_arguments
    add_chaos_arguments(chaos)
    _add_obs_flags(chaos)
    rep = sub.add_parser("report", help=_HELP["report"])
    from .report_cli import add_report_arguments
    add_report_arguments(rep)
    from ..serve.cli import add_serve_arguments, add_submit_arguments
    serve = sub.add_parser("serve", help=_HELP["serve"])
    add_serve_arguments(serve)
    _add_obs_flags(serve)
    submit = sub.add_parser("submit", help=_HELP["submit"])
    add_submit_arguments(submit)
    return parser


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stats", action="store_true",
                        help="dump session-cache counters and the metrics "
                             "registry to stderr at exit")
    parser.add_argument("--trace", metavar="PREFIX", default=None,
                        help="enable event tracing; write PREFIX.jsonl and "
                             "PREFIX.trace.json (Chrome trace format)")


def _begin_trace(prefix: str | None) -> None:
    if prefix:
        from ..obs import telemetry
        context = telemetry.current()
        context.tracer.clear()
        context.tracer.enabled = True
        # --trace also turns on detail-level spans (per placement
        # attempt, per simulator thread loop); PREFIX.spans.json gets
        # the full tree.
        context.spans.clear()
        context.spans.enabled = context.spans.detail = True


def _finish_trace(prefix: str | None) -> None:
    """Write the collected events (JSONL + Chrome trace) and spans, and
    print the per-lane event summary."""
    if not prefix:
        return
    import json

    from ..obs import (format_trace, span_tree, spans_to_dicts, telemetry,
                       write_chrome_trace, write_events_jsonl)
    context = telemetry.current()
    tracer = context.tracer
    tracer.enabled = False
    parent = Path(prefix).parent
    if parent and not parent.exists():
        parent.mkdir(parents=True, exist_ok=True)
    jsonl = f"{prefix}.jsonl"
    chrome = f"{prefix}.trace.json"
    write_events_jsonl(tracer.events, jsonl)
    write_chrome_trace(tracer.events, chrome)
    span_tracer = context.spans
    span_tracer.enabled = span_tracer.detail = False
    spans_path = f"{prefix}.spans.json"
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans_to_dicts(span_tracer.spans),
                   "tree": span_tree(span_tracer.spans, normalize=False),
                   "rollup": span_tracer.rollup()},
                  fh, separators=(",", ":"))
        fh.write("\n")
    summary = format_trace(tracer.events)
    if summary:
        print(summary, file=sys.stderr)
    print(f"[trace: {len(tracer.events)} events -> {jsonl}, {chrome}; "
          f"{len(span_tracer.spans)} spans -> {spans_path}]",
          file=sys.stderr)


def _print_stats() -> None:
    """Session-cache counters plus the full metrics registry, on stderr."""
    from ..obs import get_registry
    from ..session import get_session
    session = get_session()
    print(f"[cache: {session.cache.stats.summary()}]", file=sys.stderr)
    rendered = get_registry().render()
    if rendered:
        print("[metrics]", file=sys.stderr)
        print(rendered, file=sys.stderr)


def _run_validate_command(ns: argparse.Namespace) -> int:
    from .validate import run_validate, write_report_json
    suites = ("table2", "table3") if ns.suite == "both" else (ns.suite,)
    max_loops = ns.max_loops if ns.max_loops is not None \
        else (2 if ns.quick else None)
    iterations = ns.iterations if ns.iterations is not None \
        else (200 if ns.quick else 1000)
    arch = ArchConfig.paper_default().with_cores(ns.cores)
    _begin_trace(ns.trace)
    start = time.time()
    report = run_validate(arch, SchedulerConfig(), suites=suites,
                          max_loops=max_loops, iterations=iterations,
                          seed=ns.seed, jobs=ns.jobs)
    print(report.render())
    if ns.out:
        write_report_json(report, ns.out)
        print(f"[report -> {ns.out}]", file=sys.stderr)
    print(f"[validate: {time.time() - start:.1f}s]", file=sys.stderr)
    _finish_trace(ns.trace)
    if ns.stats:
        _print_stats()
    from ..session import get_session
    print(f"[{get_session().report()}]", file=sys.stderr)
    return 0


#: the last serve run's request tally, surfaced into its ledger record
_ledger_extra: dict | None = None


def _run_serve_command(ns: argparse.Namespace) -> int:
    global _ledger_extra
    from ..serve.cli import run_serve_command
    _begin_trace(ns.trace)
    code = run_serve_command(ns)
    _finish_trace(ns.trace)
    if ns.stats:
        _print_stats()
    # the daemon runs its own session, so the broker summary
    # printed by run_serve_command stands in for the session report here.
    _ledger_extra = getattr(ns, "serve_summary", None)
    return code


def _run_chaos_command(ns: argparse.Namespace) -> int:
    from ..faults.cli import run_chaos_command
    _begin_trace(ns.trace)
    code = run_chaos_command(ns)
    _finish_trace(ns.trace)
    if ns.stats:
        _print_stats()
    from ..session import get_session
    print(f"[{get_session().report()}]", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args_list = list(argv) if argv is not None else None
    import sys as _sys
    raw = args_list if args_list is not None else _sys.argv[1:]
    if raw and raw[0] == "report":
        # reading the ledger must not append to it
        from .report_cli import run_report_command
        return run_report_command(_build_parser().parse_args(raw))
    from ..obs.ledger import append_run_record, ledger_dir
    ledgered = ledger_dir() is not None
    if ledgered:
        # coarse spans only: the ledger records the roll-up, so
        # per-attempt detail spans would be pure memory overhead here.
        from ..obs import telemetry
        telemetry.current().spans.enabled = True
    command = raw[0] if raw and raw[0] in dict(_SUBCOMMANDS) else "suite"
    start = time.perf_counter()
    code = _dispatch(command, raw)
    if ledgered:
        append_run_record(command, raw, exit_code=code,
                          duration_seconds=time.perf_counter() - start,
                          extra=_ledger_extra)
    return code


def _dispatch(command: str, raw: list[str]) -> int:
    if command == "compile":
        from .compile_cli import run_compile_command
        ns = _build_parser().parse_args(raw)
        return run_compile_command(ns.path, cores=ns.cores,
                                   iterations=ns.iterations,
                                   unroll=ns.unroll, json_out=ns.json_out,
                                   policy=ns.policy)
    if command == "validate":
        return _run_validate_command(_build_parser().parse_args(raw))
    if command == "chaos":
        return _run_chaos_command(_build_parser().parse_args(raw))
    if command == "serve":
        return _run_serve_command(_build_parser().parse_args(raw))
    if command == "submit":
        from ..serve.cli import run_submit_command
        return run_submit_command(_build_parser().parse_args(raw))
    return _run_suite_command(raw)


def _run_suite_command(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tms-experiments",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description="Regenerate the paper's tables and figures, or run "
                    "one of the other commands listed below.",
        epilog="commands:\n" + "\n".join(
            textwrap.fill(text, 79, initial_indent=f"  {name:<12} ",
                          subsequent_indent=" " * 15)
            for name, text in _HELP.items())
        + "\n\n'tms-experiments COMMAND --help' shows a command's "
          "options.")
    parser.add_argument("experiments", nargs="+",
                        choices=_EXPERIMENTS + ("all",),
                        help="which tables/figures to run")
    parser.add_argument("--max-loops", type=int, default=None,
                        help="cap each benchmark's loop population (suite "
                             "experiments)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="simulated trip count per loop")
    parser.add_argument("--quick", action="store_true",
                        help="small populations and short runs")
    parser.add_argument("--cores", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for compiles/simulations "
                             "(default: $REPRO_JOBS or sequential; "
                             "-1 = all cores)")
    parser.add_argument("--seed", type=int, default=None,
                        help="perturb the synthetic workload populations "
                             "(reproducible; default: the calibrated "
                             "Table-2 populations)")
    _add_obs_flags(parser)
    args = parser.parse_args(argv)

    wanted = list(_EXPERIMENTS) if "all" in args.experiments \
        else args.experiments
    max_loops = args.max_loops if args.max_loops is not None \
        else (4 if args.quick else None)
    iterations = args.iterations if args.iterations is not None \
        else (200 if args.quick else 1000)
    suite_iterations = min(iterations, 300)

    arch = ArchConfig.paper_default().with_cores(args.cores)
    config = SchedulerConfig()
    jobs = args.jobs
    _begin_trace(args.trace)

    table2_rows = None
    table3_rows = None
    for name in wanted:
        start = time.time()
        if name == "table1":
            print(table1(arch))
        elif name == "table2":
            table2_rows = run_table2(arch, config, max_loops=max_loops,
                                     jobs=jobs, workload_seed=args.seed)
            print(render_table2(table2_rows))
        elif name == "fig4":
            if table2_rows is None:
                table2_rows = run_table2(arch, config, max_loops=max_loops,
                                         jobs=jobs,
                                         workload_seed=args.seed)
            print(render_fig4(run_fig4(arch, config,
                                       iterations=suite_iterations,
                                       table2_rows=table2_rows, jobs=jobs)))
        elif name == "table3":
            table3_rows = run_table3(arch, config, jobs=jobs)
            print(render_table3(table3_rows))
        elif name == "fig5":
            if table3_rows is None:
                table3_rows = run_table3(arch, config, jobs=jobs)
            print(render_fig5(run_fig5(arch, config, iterations=iterations,
                                       table3_rows=table3_rows, jobs=jobs)))
        elif name == "fig6":
            if table3_rows is None:
                table3_rows = run_table3(arch, config, jobs=jobs)
            print(render_fig6(run_fig6(arch, config, iterations=iterations,
                                       table3_rows=table3_rows, jobs=jobs)))
        elif name == "speculation":
            print(render_speculation(run_speculation(
                arch, config, iterations=iterations, jobs=jobs)))
        elif name == "ablation":
            _print_ablation(iterations, jobs)
        print(f"[{name}: {time.time() - start:.1f}s]\n", file=sys.stderr)
    _finish_trace(args.trace)
    if args.stats:
        _print_stats()
    from ..session import get_session
    print(f"[{get_session().report()}]", file=sys.stderr)
    return 0


def _print_ablation(iterations: int, jobs: int | None = None) -> None:
    from .ablation import run_granularity_sweep
    from .nest import render_nest_crossover, run_nest_crossover
    points = run_pmax_sweep(iterations=iterations, jobs=jobs)
    print(format_table(
        ["P_max", "TMS II", "TMS C_delay", "misspec freq", "cyc/iter"],
        [[p.p_max, p.tms_ii, p.tms_cdelay,
          f"{100 * p.misspec_frequency:.3f}%", p.cycles_per_iteration]
         for p in points],
        title="Ablation: P_max sweep (Table-3 loops)."))
    comm = run_comm_latency_sweep(iterations=iterations, jobs=jobs)
    print(format_table(
        ["C_reg_com", "avg C_delay", "avg cyc/iter"],
        [[r["reg_comm_latency"], r["avg_c_delay"],
          r["avg_cycles_per_iteration"]] for r in comm],
        title="Ablation: operand-network latency sweep."))
    cores = run_core_sweep(iterations=iterations, jobs=jobs)
    print(format_table(
        ["ncore", "avg TMS II", "avg C_delay", "avg cyc/iter"],
        [[r["ncore"], r["avg_tms_ii"], r["avg_c_delay"],
          r["avg_cycles_per_iteration"]] for r in cores],
        title="Ablation: core-count sweep."))
    grains = run_granularity_sweep(iterations=iterations,
                                   benchmarks=["art"])
    print(format_table(
        ["unroll", "avg TMS II", "pairs/orig-iter", "cyc/orig-iter"],
        [[r["unroll_factor"], r["avg_tms_ii"],
          r["avg_pairs_per_orig_iteration"],
          r["avg_cycles_per_orig_iteration"]] for r in grains],
        title="Ablation: thread-granularity sweep via unrolling "
              "(fine-grain art loops)."))
    print(render_nest_crossover(run_nest_crossover(
        benchmarks=["equake", "fma3d"])))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
