"""CLI entry point."""

import json

import pytest

from repro.experiments.runner import main
from repro.obs.report import validate_report_dict


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Architecture simulated" in out


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("  ") and not line.startswith("   ")}
    assert {"table1", "table2", "table3", "fig4", "fig5", "fig6",
            "speculation", "ablation", "all", "compile", "validate",
            "chaos", "report", "serve", "submit"} <= listed


def test_quick_table3(capsys):
    assert main(["table3", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "DOACROSS" in out


def test_stats_flag_dumps_metrics(capsys):
    from repro.obs.telemetry import Telemetry
    from repro.session import reset_session

    reset_session()  # a warm cache would skip the compiles counted below
    try:
        with Telemetry():
            assert main(["table3", "--quick", "--stats"]) == 0
    finally:
        reset_session()
    captured = capsys.readouterr()
    assert "[metrics]" in captured.err
    # counters a cold table3 run produces itself
    assert "session.compiles" in captured.err
    assert "tms.candidates" in captured.err
    assert "[cache:" in captured.err
    # the report stream itself stays clean for diffing
    assert "[metrics]" not in captured.out


def test_trace_flag_writes_exports(tmp_path, capsys):
    from repro.session import reset_session
    reset_session()  # a warm cache would skip the traced compiles/sims
    prefix = tmp_path / "run"
    assert main(["table3", "--quick", "--trace", str(prefix)]) == 0
    captured = capsys.readouterr()
    assert "events ->" in captured.err
    jsonl = (tmp_path / "run.jsonl").read_text().splitlines()
    assert jsonl and all(json.loads(line) for line in jsonl)
    chrome = json.loads((tmp_path / "run.trace.json").read_text())
    assert chrome["traceEvents"]
    assert any(r["ph"] == "M" for r in chrome["traceEvents"])


def test_validate_subcommand(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    assert main(["validate", "--suite", "table3", "--iterations", "100",
                 "--out", str(out_json)]) == 0
    captured = capsys.readouterr()
    assert "MAPE (overall" in captured.out
    data = json.loads(out_json.read_text())
    validate_report_dict(data)
    assert data["summary"]["n_rows"] > 0


def test_cli_table2_accepts_seed(capsys):
    assert main(["table2", "--quick", "--seed", "9"]) == 0
    assert "swim" in capsys.readouterr().out
