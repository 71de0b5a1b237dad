"""The 'tms-experiments compile' flow."""

import json

import pytest

from repro.experiments.compile_cli import compile_report, render_compile_report
from repro.experiments.runner import main

SRC = """
loop dotacc
array X 128
array Y 128
livein s 0.0
livein p 3.0
n0: x = load X[i]
n1: y = load Y[p]
n2: m = fmul x, y
n3: s = fadd s, m
n4: store Y[i+5], m
n5: p = iadd p, 2
"""


@pytest.fixture(scope="module")
def report():
    return compile_report(SRC, iterations=200, profile_iterations=128)


def test_report_structure(report):
    assert report["loop"] == "dotacc"
    assert report["instructions"] == 6
    assert set(report["algorithms"]) == {"sms", "tms"}
    for alg in report["algorithms"].values():
        assert alg["ii"] >= 1
        assert alg["simulated_cycles_per_iteration"] > 0
        assert "SPAWN" in alg["thread_program"]


def test_report_is_json_serialisable(report):
    text = json.dumps(report)
    assert "dotacc" in text


def test_tms_cdelay_not_worse(report):
    assert report["algorithms"]["tms"]["c_delay"] <= \
        report["algorithms"]["sms"]["c_delay"] + 1e-9


def test_render(report):
    text = render_compile_report(report)
    assert "TMS speedup over SMS" in text and "thread program" in text


#: the loop CI's serve smoke test compiles
AXPY = """
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


def test_max_live_is_not_the_register_count():
    """``max_live`` is MaxLive of the schedule; the allocator needs more
    registers than that on AXPY, so the two fields differ."""
    algs = compile_report(AXPY, iterations=100)["algorithms"]
    assert (algs["sms"]["max_live"], algs["tms"]["max_live"]) == (8, 9)
    assert (algs["sms"]["registers"], algs["tms"]["registers"]) == (9, 12)


def test_unroll_option():
    r = compile_report(SRC, iterations=100, unroll=2, profile_iterations=64)
    assert r["instructions"] == 12


def test_cli_end_to_end(tmp_path, capsys):
    src_file = tmp_path / "loop.dsl"
    src_file.write_text(SRC)
    json_file = tmp_path / "out.json"
    assert main(["compile", str(src_file), "--iterations", "100",
                 "--json", str(json_file)]) == 0
    out = capsys.readouterr().out
    assert "TMS speedup over SMS" in out
    data = json.loads(json_file.read_text())
    assert data["loop"] == "dotacc"
