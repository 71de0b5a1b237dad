"""Figure 4 harness."""

import pytest

from repro.experiments import render_fig4, run_fig4, run_table2
from repro.experiments.fig4 import amdahl


def test_amdahl():
    assert amdahl(0.5, 2.0) == pytest.approx(1 / 0.75)
    assert amdahl(1.0, 2.0) == pytest.approx(2.0)
    assert amdahl(0.0, 10.0) == pytest.approx(1.0)
    assert amdahl(0.5, 0.0) == 1.0


@pytest.fixture(scope="module")
def table2_rows():
    return run_table2(max_loops=4)   # all 13 benchmarks


@pytest.fixture(scope="module")
def rows(table2_rows):
    return run_fig4(iterations=200, table2_rows=table2_rows)


def test_speedups_positive(rows, table2_rows):
    for r in rows:
        assert r.loop_speedup > 0.9, r.benchmark
        assert len(r.per_loop) == 4
    # paper: +28% average loop speedup; wupwise gains (almost) nothing,
    # its dominant loop being one big SCC
    assert sum(r.loop_speedup for r in rows) / len(rows) > 1.05
    assert min(rows, key=lambda r: r.loop_speedup).benchmark == "wupwise"
    # the Table-2 shape behind those speedups: TMS trades II for C_delay
    assert len(table2_rows) == 13
    for row in table2_rows:
        assert row.tms_ii >= row.sms_ii - 1e-9, row.benchmark
        assert row.tms_cdelay <= row.sms_cdelay + 1e-9, row.benchmark
        assert row.tlp_gap_tms >= row.tlp_gap_sms - 1e-9, row.benchmark


def test_program_composition(rows):
    for r in rows:
        if r.loop_speedup > 1:
            assert 1.0 <= r.program_speedup <= r.loop_speedup


def test_render(rows):
    text = render_fig4(rows)
    assert "AVERAGE" in text and "+28.0%" in text
