"""``tms-experiments report``: the ledger rendering and the perfbench gate."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.experiments.report_cli import (
    BENCHMARK_JSON,
    EXIT_REGRESSION,
    add_report_arguments,
    compare_runs,
    run_report_command,
)
from repro.experiments.runner import main
from repro.obs.ledger import LEDGER_FILENAME, append_run_record

END_TO_END = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
SPEC = {m["name"]: m for m in END_TO_END}

#: every metric's parent value; binary-exact, so a value at the bound
#: lands on it exactly
BASE = 8.0


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    add_report_arguments(parser)
    return parser.parse_args(argv)


def result_line(correct: bool = True, attempted: int = 100, failed: int = 0,
                **values: float) -> dict:
    """A perfbench result line with every end-to-end metric at ``BASE``
    except those named in ``values``."""
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values.get(name, BASE),
                               "unit": spec["unit"]}
                        for name, spec in SPEC.items()}}


def write_runs(path, *runs: dict):
    path.write_text("".join(json.dumps(run) + "\n" for run in runs))
    return path


def check(tmp_path, change: list[dict], parent: list[dict]) -> int:
    c = write_runs(tmp_path / "change.jsonl", *change)
    p = write_runs(tmp_path / "parent.jsonl", *parent)
    return run_report_command(parse(
        ["--bench", str(c), "--against", str(p), "--check"]))


def at_bound(name: str, factor: float = 1.0) -> float:
    """``name``'s value worse than ``BASE`` by ``factor`` times its bound."""
    sign = 1.0 if SPEC[name]["better"] == "lower" else -1.0
    return BASE * (1.0 + sign * factor * SPEC[name]["bound"])


def regressed(change: list[dict], parent: list[dict]) -> list[str]:
    return [row["metric"] for row in compare_runs(change, parent, END_TO_END)
            if row["regressed"]]


class TestCheckMath:
    def test_threshold_boundary(self):
        for name in ("op_ms_p50", "ops_per_s"):
            at = result_line(**{name: at_bound(name)})
            assert regressed([at], [result_line()]) == []
            over = result_line(**{name: at_bound(name, 1.001)})
            assert regressed([over], [result_line()]) == [name]
        assert at_bound("op_ms_p50") == 10.0  # the bound lands exactly
        assert at_bound("ops_per_s") == 6.0

    def test_improvement_never_regresses(self):
        better = result_line(**{name: at_bound(name, -2.0) for name in SPEC})
        rows = compare_runs([better], [result_line()], END_TO_END)
        assert all(row["worse_by"] < 0 and not row["regressed"]
                   for row in rows)

    def test_ops_per_s_is_higher_is_better(self):
        assert SPEC["ops_per_s"]["better"] == "higher"
        assert regressed([result_line(ops_per_s=2 * BASE)],
                         [result_line()]) == []
        assert regressed([result_line(ops_per_s=0.7 * BASE)],
                         [result_line()]) == ["ops_per_s"]

    def test_every_end_to_end_metric_is_gated(self):
        worse = result_line(**{name: at_bound(name, 1.1) for name in SPEC})
        assert regressed([worse], [result_line()]) == list(SPEC)

    def test_medians_not_single_runs_are_compared(self):
        clean, outlier = result_line(), result_line(op_ms_p90=100 * BASE)
        parent = [clean] * 3
        assert regressed([outlier, clean, clean, clean, outlier],
                         parent) == []
        assert regressed([clean, outlier, outlier, outlier, clean],
                         parent) == ["op_ms_p90"]
        fast = result_line(op_ms_p90=BASE / 100)
        assert regressed([clean], [fast, clean, clean, clean, fast]) == []

    def test_zero_baseline_handled(self):
        parent = [result_line(op_ms_p50=0.0)]
        rows = {row["metric"]: row for row in compare_runs(
            [result_line()], parent, END_TO_END)}
        assert rows["op_ms_p50"]["worse_by"] == float("inf")
        assert rows["op_ms_p50"]["regressed"]
        assert regressed(parent, parent) == []


class TestRunReportCommand:
    def test_clean_check_exits_zero(self, tmp_path, capsys):
        runs = [result_line(), result_line(), result_line()]
        assert check(tmp_path, runs, runs) == 0
        err = capsys.readouterr().err
        assert "REGRESSION" not in err
        assert "1 pair(s) within BENCHMARK.json's bounds" in err

    def test_synthetic_regression_exits_typed_code(self, tmp_path, capsys):
        assert SPEC["op_ms_p50"]["better"] == "lower"
        worse = result_line(op_ms_p50=at_bound("op_ms_p50", 1.001))
        assert check(tmp_path, [worse], [result_line()]) == EXIT_REGRESSION
        captured = capsys.readouterr()
        assert "**REGRESSED**" in captured.out
        [line] = [ln for ln in captured.err.splitlines()
                  if ln.startswith("REGRESSION:")]
        assert str(tmp_path / "change.jsonl") in line
        assert "op_ms_p50" in line

    def test_incorrect_line_fails(self, tmp_path, capsys):
        change = [result_line(), result_line(correct=False)]
        assert check(tmp_path, change, [result_line()]) == EXIT_REGRESSION
        assert "change.jsonl: run 2 is not correct" in capsys.readouterr().err
        parent = [result_line(correct=False)]
        assert check(tmp_path, [result_line()], parent) == EXIT_REGRESSION

    def test_larger_failed_share_fails(self, tmp_path, capsys):
        parent = [result_line(attempted=100, failed=1)]
        same = [result_line(attempted=200, failed=2)]
        assert check(tmp_path, same, parent) == 0
        more = [result_line(attempted=200, failed=3)]
        assert check(tmp_path, more, parent) == EXIT_REGRESSION
        assert "3 of 200 ops failed against 1 of 100" in \
            capsys.readouterr().err

    def test_printed_bounds_are_benchmark_json_bounds(self, tmp_path,
                                                      capsys):
        c = write_runs(tmp_path / "c.jsonl", result_line())
        assert run_report_command(parse(
            ["--bench", str(c), "--against", str(c)])) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if cells[0] in SPEC:
                rows[cells[0]] = (cells[1], float(cells[2]))
        assert rows == {name: (spec["better"], spec["bound"])
                        for name, spec in SPEC.items()}

    def test_no_check_reports_without_gating(self, tmp_path, capsys):
        c = write_runs(tmp_path / "c.jsonl",
                       result_line(ops_per_s=BASE / 4))
        p = write_runs(tmp_path / "p.jsonl", result_line())
        assert run_report_command(parse(
            ["--bench", str(c), "--against", str(p)])) == 0
        assert "**REGRESSED**" in capsys.readouterr().out

    def test_against_count_mismatch_is_usage_error(self, tmp_path, capsys):
        c = write_runs(tmp_path / "c.jsonl", result_line())
        code = run_report_command(parse(
            ["--bench", str(c), "--bench", str(c), "--against", str(c)]))
        assert code == 1
        assert "pair them positionally" in capsys.readouterr().err

    def test_check_without_bench_is_usage_error(self, capsys):
        assert run_report_command(parse(["--check"])) == 1
        assert "--check needs --bench" in capsys.readouterr().err

    def test_unreadable_bench_is_an_error(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.jsonl")
        code = run_report_command(parse(
            ["--bench", absent, "--against", absent, "--check"]))
        assert code == 1
        assert "absent.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "", "\n\n", "not json\n", "[1, 2]\n",
        json.dumps({"correct": True, "metrics": {}}) + "\n",
    ], ids=["empty", "blank", "not-json", "not-object", "missing-keys"])
    def test_malformed_files_are_errors(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        good = write_runs(tmp_path / "good.jsonl", result_line())
        code = run_report_command(parse(
            ["--bench", str(bad), "--against", str(good), "--check"]))
        assert code == 1
        assert "bad.jsonl" in capsys.readouterr().err

    def test_traced_line_is_rejected(self, tmp_path, capsys):
        traced = {"correct": True, "attempted": 100, "failed": 0,
                  "metrics": {"sched.tms_s": {"value": 0.1, "unit": "s"}}}
        bad = write_runs(tmp_path / "traced.jsonl", traced)
        code = run_report_command(parse(
            ["--bench", str(bad), "--against", str(bad), "--check"]))
        assert code == 1
        assert "traced run" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path):
        c = tmp_path / "c.jsonl"
        c.write_text("\n" + json.dumps(result_line()) + "\n\n")
        assert run_report_command(parse(
            ["--bench", str(c), "--against", str(c), "--check"])) == 0

    def test_markdown_output(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        append_run_record("compile", ["--stats"], duration_seconds=0.5)
        c = write_runs(tmp_path / "c.jsonl", result_line())
        md = tmp_path / "out" / "report.md"
        code = run_report_command(parse(
            ["--bench", str(c), "--against", str(c),
             "--markdown", str(md)]))
        assert code == 0
        text = md.read_text()
        assert "# repro perf & run report" in text
        assert "| compile " in text  # the ledger row made it in
        assert f"## perfbench: `{c}` against `{c}`" in text

    def test_corrupt_ledger_lines_reported_not_fatal(self, tmp_path,
                                                     capsys):
        ledger = tmp_path / LEDGER_FILENAME
        append_run_record("validate", [], directory=tmp_path)
        with open(ledger, "a", encoding="utf-8") as fh:
            fh.write("garbage line\n")
        code = run_report_command(parse(["--ledger", str(ledger)]))
        assert code == 0
        assert "1 corrupt lines skipped" in capsys.readouterr().out


class TestCliWiring:
    def test_report_subcommand_reachable_from_main(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        c = write_runs(tmp_path / "c.jsonl", result_line())
        code = main(["report", "--bench", str(c), "--against", str(c),
                     "--check"])
        assert code == 0
        assert "Run ledger" in capsys.readouterr().out

    def test_regression_exit_code_reaches_main(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        c = write_runs(tmp_path / "c.jsonl",
                       result_line(ops_per_s=0.7 * BASE))
        p = write_runs(tmp_path / "p.jsonl", result_line())
        code = main(["report", "--bench", str(c), "--against", str(p),
                     "--check"])
        assert code == EXIT_REGRESSION == 3
        assert f"{c}: ops_per_s worse by 0.300" in capsys.readouterr().err
