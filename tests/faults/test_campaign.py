"""Chaos campaigns: determinism, report schema, CLI plumbing."""

from __future__ import annotations

import json

import pytest

from repro.faults import SCENARIOS, build_plan, derive_seed, run_chaos, \
    validate_chaos_report_dict, write_chaos_report_json
from repro.faults.report import ChaosReport, ChaosRow
from repro.obs.telemetry import Telemetry

_QUICK = dict(suites=("table3",), max_loops=1, iterations=60, seed=11,
              scenarios=("baseline", "squash-storm", "jitter"))


@pytest.fixture(scope="module")
def quick_report():
    return run_chaos(**_QUICK)


def test_campaign_runs_every_scenario(quick_report):
    assert {r.scenario for r in quick_report.rows} == set(_QUICK["scenarios"])
    assert all(r.iterations == 60 for r in quick_report.rows)


def test_campaign_sanitizer_clean(quick_report):
    assert quick_report.invariant_violations == 0
    assert all(r.ok for r in quick_report.rows)


def test_campaign_rows_record_policy(quick_report):
    # the table3 DOACROSS loops schedule with TMS proper (no degradation),
    # and the report's schema surfaces that per row
    assert all(r.policy == "tms" for r in quick_report.rows)
    for row in quick_report.to_dict()["rows"]:
        assert row["policy"] == "tms"


def test_campaign_injects_faults(quick_report):
    injected = quick_report.injected_by_kind()
    assert injected.get("violation", 0) > 0
    assert injected.get("comm_jitter", 0) > 0


def test_baseline_slowdown_is_one(quick_report):
    for row in quick_report.rows:
        if row.scenario == "baseline":
            assert row.slowdown == 1.0
            assert row.injected == {}


def test_campaign_deterministic(quick_report):
    again = run_chaos(**_QUICK)
    assert again.to_dict() == quick_report.to_dict()


def test_campaign_without_tracing_keeps_no_events():
    """Each run is checked on its own events; with events off around the
    campaign, none of them is left behind."""
    with Telemetry() as outer:
        run_chaos(**_QUICK)
    assert len(outer.tracer) == 0
    assert outer.registry.counter("sim.runs").value == 3


def test_campaign_under_tracing_keeps_every_run_event():
    """``chaos --trace`` still exports the runs' events: one commit per
    simulated thread, baseline and faulted runs alike."""
    with Telemetry(events=True) as outer:
        run_chaos(**_QUICK)
    commits = outer.tracer.select("sim", "commit")
    assert len(commits) == 3 * _QUICK["iterations"]
    assert [e.seq for e in outer.tracer] == list(range(len(outer.tracer)))


def test_campaign_seed_changes_outcomes():
    a = run_chaos(**{**_QUICK, "seed": 1})
    b = run_chaos(**{**_QUICK, "seed": 2})
    assert a.to_dict() != b.to_dict()


def test_report_schema_valid(quick_report):
    validate_chaos_report_dict(quick_report.to_dict())


def test_report_json_byte_identical(quick_report, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_chaos_report_json(quick_report, p1)
    write_chaos_report_json(run_chaos(**_QUICK), p2)
    assert p1.read_bytes() == p2.read_bytes()
    validate_chaos_report_dict(json.loads(p1.read_text()))


def test_render_mentions_outcome(quick_report):
    text = quick_report.render()
    assert "Chaos campaign" in text
    assert "All trace invariants held" in text


def test_schema_rejects_missing_key(quick_report):
    data = quick_report.to_dict()
    del data["summary"]["invariant_violations"]
    with pytest.raises(ValueError, match="invariant_violations"):
        validate_chaos_report_dict(data)


def test_schema_rejects_bad_version(quick_report):
    data = quick_report.to_dict()
    data["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        validate_chaos_report_dict(data)


def test_schema_rejects_mistyped_row(quick_report):
    data = quick_report.to_dict()
    data["rows"][0]["ok"] = 1  # bool field, int value
    with pytest.raises(ValueError, match="ok"):
        validate_chaos_report_dict(data)


def test_every_scenario_has_a_plan():
    for scenario in SCENARIOS:
        plan = build_plan(scenario, seed=3)
        if scenario == "baseline":
            assert plan is None
        else:
            assert plan is not None and len(plan) >= 1


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError, match="unknown chaos scenario"):
        build_plan("meteor", seed=0)
    with pytest.raises(ValueError, match="unknown chaos scenario"):
        run_chaos(scenarios=("meteor",))


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "k", "s") == derive_seed(7, "k", "s")
    assert derive_seed(7, "k", "s") != derive_seed(7, "k", "t")
    assert derive_seed(7, "k", "s") != derive_seed(8, "k", "s")


def test_findings_surface_in_report():
    row = ChaosRow(kernel="k", benchmark="b", scenario="jitter",
                   plan="jitter", seed=1, iterations=10, total_cycles=100.0,
                   misspeculations=0, squashed_threads=0,
                   wasted_execution_cycles=0.0, sync_stall_cycles=0.0,
                   findings=("commit-order: thread 3 out of order",))
    report = ChaosReport(rows=(row,), seed=1, ncore=4, iterations=10,
                         scenarios=("jitter",))
    assert not row.ok
    assert report.invariant_violations == 1
    assert "VIOLATED" in report.render()
    validate_chaos_report_dict(report.to_dict())


def test_cli_quick_exits_zero(tmp_path):
    from repro.experiments.runner import main
    out = tmp_path / "chaos.json"
    code = main(["chaos", "--quick", "--max-loops", "1",
                 "--iterations", "40", "--seed", "5",
                 "--scenarios", "baseline,cascade",
                 "--out", str(out)])
    assert code == 0
    validate_chaos_report_dict(json.loads(out.read_text()))


def test_cli_rejects_unknown_scenario():
    from repro.experiments.runner import main
    assert main(["chaos", "--quick", "--scenarios", "meteor"]) == 2
