"""Compile pipeline (the raw flow a session runs on a cache miss)."""

import pytest

from repro.experiments.pipeline import compile_loop_uncached


def test_compile_loop_from_loop(fig1_loop, fig1_machine, fig1_latency, arch):
    compiled = compile_loop_uncached(fig1_loop, arch, fig1_machine,
                                     latency=fig1_latency)
    assert compiled.mii == 8
    assert compiled.sms.ii == 8
    assert compiled.tms.c_delay <= compiled.sms.c_delay
    assert compiled.n_scc >= 4


def test_compile_loop_from_ddg(fig1_ddg, fig1_machine, arch):
    compiled = compile_loop_uncached(fig1_ddg, arch, fig1_machine)
    assert compiled.name == "motivating"
    assert compiled.n_inst == 9


def test_gaps(fig1_ddg, fig1_machine, arch):
    compiled = compile_loop_uncached(fig1_ddg, arch, fig1_machine)
    assert compiled.tlp_gap_tms == pytest.approx(
        compiled.tms.ii - compiled.tms.c_delay)
