"""``tms-experiments report``: the run ledger and the perfbench gate.

Renders the run ledger (:mod:`repro.obs.ledger`) as markdown, and
compares files of perfbench result lines — the JSON object that ends
every ``perfbench/run.py`` run, one run per line — of a change
(``--bench``) with its parent's (``--against``), paired positionally.

``--check`` applies ``BENCHMARK.json``'s rule to each pair and exits
with :data:`EXIT_REGRESSION` when the change breaks it:

* every result line, on either side, is ``correct``;
* the change fails no larger share of its ops than the parent;
* on each end-to-end metric, the median over the change's runs is no
  worse than the parent's by more than the metric's ``bound``, in the
  metric's ``better`` direction.

Metric names, directions and bounds come only from the
``BENCHMARK.json`` at the repository root.  A traced run
(``--trace 1``) prints per-layer metrics only, so its line is rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Any

__all__ = ["BENCHMARK_JSON", "EXIT_REGRESSION", "add_report_arguments",
           "compare_files", "compare_runs", "read_results",
           "run_report_command"]

#: typed exit code of ``report --check`` on a detected regression.
EXIT_REGRESSION = 3

#: the benchmark declaration at the repository root.
BENCHMARK_JSON = Path(__file__).resolve().parents[3] / "BENCHMARK.json"


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", default=None, metavar="FILE",
                        help="ledger JSONL to render (default: "
                             "$REPRO_LEDGER_DIR/ledger.jsonl when set)")
    parser.add_argument("--bench", action="append", default=None,
                        metavar="CHANGE",
                        help="file of the change's perfbench result lines "
                             "(repeatable, each paired with an --against)")
    parser.add_argument("--against", action="append", default=None,
                        metavar="PARENT",
                        help="file of the parent's perfbench result lines, "
                             "paired positionally with each --bench")
    parser.add_argument("--markdown", default=None, metavar="FILE",
                        help="also write the markdown report to this file")
    parser.add_argument("--check", action="store_true",
                        help=f"exit {EXIT_REGRESSION} if a change breaks "
                             f"BENCHMARK.json's rule against its parent")


# -- the rule -----------------------------------------------------------------

def read_results(path: Path, metrics: list[str]) -> list[dict[str, Any]]:
    """The perfbench result lines of ``path``, blank lines skipped.

    Raises ``ValueError`` naming the first line that is not a result
    line or lacks one of ``metrics``, or a file with no result line.
    """
    runs = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            run = json.loads(line)
        except ValueError:
            run = None
        if not (isinstance(run, dict)
                and {"correct", "attempted", "failed", "metrics"} <= set(run)
                and isinstance(run["metrics"], dict)):
            raise ValueError(f"{path} line {lineno}: not a perfbench "
                             f"result line")
        values = run["metrics"]
        missing = [m for m in metrics if not isinstance(values.get(m), dict)
                   or "value" not in values[m]]
        if missing:
            raise ValueError(f"{path} line {lineno}: no {missing[0]} (a "
                             f"traced run has no end-to-end metrics)")
        runs.append(run)
    if not runs:
        raise ValueError(f"{path}: no perfbench result lines")
    return runs


def compare_runs(change: list[dict], parent: list[dict],
                 end_to_end: list[dict]) -> list[dict[str, Any]]:
    """One row per end-to-end metric: both medians and how much worse
    the change is, as a fraction of the parent's median in the metric's
    ``better`` direction; ``regressed`` when that exceeds ``bound``."""
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        new = statistics.median(r["metrics"][name]["value"] for r in change)
        old = statistics.median(r["metrics"][name]["value"] for r in parent)
        worse = new - old if spec["better"] == "lower" else old - new
        worse_by = worse / old if old else (math.inf if worse > 0 else 0.0)
        rows.append({"metric": name, "better": spec["better"],
                     "bound": spec["bound"], "parent": old, "change": new,
                     "worse_by": worse_by,
                     "regressed": worse_by > spec["bound"]})
    return rows


def _failed(runs: list[dict]) -> tuple[int, int]:
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def compare_files(change_path: Path, parent_path: Path,
                  end_to_end: list[dict]) -> dict[str, Any]:
    """Read one ``--bench``/``--against`` pair and apply the rule: the
    rows of :func:`compare_runs` and every breach, each naming its
    file."""
    metrics = [spec["name"] for spec in end_to_end]
    change = read_results(change_path, metrics)
    parent = read_results(parent_path, metrics)
    rows = compare_runs(change, parent, end_to_end)
    problems = [f"{path}: run {n} is not correct"
                for path, runs in ((change_path, change),
                                   (parent_path, parent))
                for n, run in enumerate(runs, start=1)
                if run["correct"] is not True]
    (cf, ca), (pf, pa) = _failed(change), _failed(parent)
    if cf * pa > pf * ca:
        problems.append(f"{change_path}: {cf} of {ca} ops failed against "
                        f"{pf} of {pa} in {parent_path}")
    problems += [f"{change_path}: {row['metric']} worse by "
                 f"{row['worse_by']:.3f} of the parent's median (bound "
                 f"{row['bound']:g})" for row in rows if row["regressed"]]
    return {"change": str(change_path), "parent": str(parent_path),
            "runs": (len(change), len(parent)),
            "failed": ((cf, ca), (pf, pa)), "rows": rows,
            "problems": problems}


# -- rendering ----------------------------------------------------------------

def _fmt_metric_value(value: Any) -> str:
    if isinstance(value, dict):
        return f"n={value.get('count', 0)}"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _ledger_section(records: list[dict], skipped: int,
                    path: Path | None) -> list[str]:
    lines = ["## Run ledger", ""]
    if path is None:
        lines += ["No ledger configured (set `REPRO_LEDGER_DIR` or pass "
                  "`--ledger`).", ""]
        return lines
    lines.append(f"`{path}` — {len(records)} records"
                 + (f", {skipped} corrupt lines skipped" if skipped else "")
                 + ".")
    lines.append("")
    if not records:
        return lines
    lines += ["| timestamp | command | exit | seconds | compiles "
              "| simulations | sim runs | spans |",
              "|---|---|---:|---:|---:|---:|---:|---:|"]
    for r in records:
        m = r.get("metrics", {})
        spans = sum(int(s.get("count", 0)) for s in r.get("spans", []))
        lines.append(
            f"| {r.get('timestamp', '')} | {r.get('command', '')} "
            f"| {r.get('exit_code', '')} "
            f"| {r.get('duration_seconds', 0.0):.2f} "
            f"| {_fmt_metric_value(m.get('session.compiles', 0))} "
            f"| {_fmt_metric_value(m.get('session.simulations', 0))} "
            f"| {_fmt_metric_value(m.get('sim.runs', 0))} "
            f"| {spans} |")
    lines.append("")
    return lines


def _pair_section(pair: dict) -> list[str]:
    (cf, ca), (pf, pa) = pair["failed"]
    lines = [f"## perfbench: `{pair['change']}` against `{pair['parent']}`",
             "",
             f"{pair['runs'][0]} runs against {pair['runs'][1]}; failed "
             f"ops {cf} of {ca} against {pf} of {pa}.",
             "",
             "| metric | better | bound | parent median | change median "
             "| worse by | status |",
             "|---|---|---:|---:|---:|---:|---|"]
    for row in pair["rows"]:
        status = "**REGRESSED**" if row["regressed"] else "ok"
        lines.append(
            f"| {row['metric']} | {row['better']} | {row['bound']:g} "
            f"| {row['parent']:.4g} | {row['change']:.4g} "
            f"| {row['worse_by']:+.3f} | {status} |")
    lines.append("")
    if pair["problems"]:
        lines += [f"- {problem}" for problem in pair["problems"]] + [""]
    return lines


# -- the command --------------------------------------------------------------

def run_report_command(ns: argparse.Namespace) -> int:
    from ..obs.ledger import LEDGER_FILENAME, ledger_dir, read_ledger

    ledger_path: Path | None = None
    if ns.ledger:
        ledger_path = Path(ns.ledger)
    else:
        env_dir = ledger_dir()
        if env_dir is not None:
            ledger_path = env_dir / LEDGER_FILENAME
    records: list[dict] = []
    skipped = 0
    if ledger_path is not None:
        records, skipped = read_ledger(ledger_path)

    bench = [Path(p) for p in ns.bench or []]
    against = [Path(p) for p in ns.against or []]
    if len(against) != len(bench):
        print(f"error: {len(against)} --against for {len(bench)} --bench "
              f"(pair them positionally)", file=sys.stderr)
        return 1
    if ns.check and not bench:
        print("error: --check needs --bench CHANGE --against PARENT",
              file=sys.stderr)
        return 1
    pairs: list[dict] = []
    if bench:
        try:
            end_to_end = json.loads(
                BENCHMARK_JSON.read_text(encoding="utf-8"))["end_to_end"]
            pairs = [compare_files(c, p, end_to_end)
                     for c, p in zip(bench, against)]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    lines = ["# repro perf & run report", ""]
    lines += _ledger_section(records, skipped, ledger_path)
    for pair in pairs:
        lines += _pair_section(pair)
    markdown = "\n".join(lines)
    print(markdown)
    if ns.markdown:
        Path(ns.markdown).parent.mkdir(parents=True, exist_ok=True)
        Path(ns.markdown).write_text(markdown, encoding="utf-8")
        print(f"[markdown -> {ns.markdown}]", file=sys.stderr)

    if ns.check:
        problems = [p for pair in pairs for p in pair["problems"]]
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return EXIT_REGRESSION
        print(f"[check: {len(pairs)} pair(s) within BENCHMARK.json's "
              f"bounds]", file=sys.stderr)
    return 0
