"""Ablation sweeps (restricted to the small art loops for speed)."""

import pytest

from repro.errors import SchedulingError
from repro.experiments import run_comm_latency_sweep, run_core_sweep, run_pmax_sweep
from repro.experiments.ablation import (
    render_scheduler_comparison,
    run_granularity_sweep,
    run_scheduler_comparison,
)
from repro.sched.huff import HuffModuloScheduler

BENCH = ["art"]


def test_pmax_sweep_monotone_misspec():
    points = run_pmax_sweep(p_values=(0.0, 1.0), iterations=200,
                            benchmarks=BENCH)
    assert points[0].misspec_frequency <= points[1].misspec_frequency + 1e-9


def test_comm_latency_sweep():
    rows = run_comm_latency_sweep(latencies=(1, 6), iterations=200,
                                  benchmarks=BENCH)
    assert rows[0]["avg_c_delay"] <= rows[1]["avg_c_delay"]


def test_core_sweep():
    rows = run_core_sweep(cores=(2, 8), iterations=200, benchmarks=BENCH)
    assert rows[0]["ncore"] == 2 and rows[1]["ncore"] == 8
    assert rows[1]["avg_cycles_per_iteration"] <= \
        rows[0]["avg_cycles_per_iteration"] + 1e-9


def test_scheduler_comparison():
    rows = run_scheduler_comparison(iterations=200, benchmarks=BENCH)
    for row in rows:
        assert row["tms_cdelay"] <= row["sms_cdelay"] + 1e-9
        assert row["ims_ii"] > 0


def test_scheduler_without_a_schedule_is_a_missing_entry(monkeypatch):
    # Huff finds no schedule for lucas_fft; the comparison reports that
    # instead of raising
    def no_schedule(self):
        raise SchedulingError("no schedule")

    monkeypatch.setattr(HuffModuloScheduler, "schedule", no_schedule)
    rows = run_scheduler_comparison(iterations=100, benchmarks=BENCH)
    assert rows
    for row in rows:
        assert not any(key.startswith("huff_") for key in row), row
        assert {"sms_cpi", "ims_cpi", "tms_cpi"} <= set(row)
    table = render_scheduler_comparison(rows).splitlines()
    assert all(line.split("|")[3].strip() == "—" for line in table[3:])


def test_granularity_sweep():
    rows = run_granularity_sweep(factors=(1, 4), iterations=200,
                                 benchmarks=BENCH)
    assert [r["unroll_factor"] for r in rows] == [1, 4]
    # coarser threads communicate less per original iteration
    assert rows[1]["avg_pairs_per_orig_iteration"] < \
        rows[0]["avg_pairs_per_orig_iteration"]
