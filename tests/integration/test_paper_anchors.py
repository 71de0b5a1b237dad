"""Every quantitative anchor recoverable from the paper's text, in one
place.  These are the reproduction's headline guarantees."""

import pytest

from repro.config import ArchConfig, SimConfig
from repro.costmodel import achieved_c_delay, sync_delay
from repro.experiments import run_fig5, run_fig6, run_table3
from repro.graph import compute_mii, rec_mii, res_mii
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.sched.ordering import compute_node_order
from repro.spmt import simulate
from repro.workloads import motivating_ddg, motivating_machine

ARCH = ArchConfig.paper_default()


class TestMotivatingExample:
    """Section 4.1 / Figures 1-2."""

    @pytest.fixture(scope="class")
    def setup(self):
        ddg = motivating_ddg()
        rm = motivating_machine()
        return ddg, rm, schedule_sms(ddg, rm), schedule_tms(ddg, rm, ARCH)

    def test_mii(self, setup):
        ddg, rm, _sms, _tms = setup
        assert (res_mii(ddg, rm), rec_mii(ddg)) == (4, 8)
        assert compute_mii(ddg, rm) == 8

    def test_sms_order(self, setup):
        ddg = setup[0]
        assert compute_node_order(ddg)[:6] == \
            ["n5", "n4", "n2", "n1", "n0", "n3"]

    def test_sms_sync_delay_11(self, setup):
        _ddg, _rm, sms, _tms = setup
        assert sms.ii == 8
        assert achieved_c_delay(sms, ARCH) == pytest.approx(11.0)

    def test_kernel_dependences(self, setup):
        _ddg, _rm, sms, _tms = setup
        reg = {(e.src, e.dst) for e in sms.inter_iteration_register_deps()}
        mem = {(e.src, e.dst) for e in sms.inter_iteration_memory_deps()}
        assert ("n6", "n0") in reg and ("n6", "n6") in reg
        assert mem == {("n5", "n0"), ("n5", "n2"), ("n5", "n3")}

    def test_tms_collapses_sync(self, setup):
        _ddg, _rm, _sms, tms = setup
        assert tms.ii == 8
        assert achieved_c_delay(tms, ARCH) <= 5.0

    def test_tms_beats_sms_on_spmt(self, setup):
        ddg, _rm, sms, tms = setup
        cfg = SimConfig(iterations=1000)
        for ncore in (2, 4):
            arch = ARCH.with_cores(ncore)
            t_sms = simulate(run_postpass(sms, arch), arch, cfg).total_cycles
            t_tms = simulate(run_postpass(tms, arch), arch, cfg).total_cycles
            assert t_tms < t_sms, ncore


class TestSelectedLoops:
    """Tables 3, Figures 5-6, Section 5.2."""

    @pytest.fixture(scope="class")
    def table3(self):
        return run_table3()

    def test_lucas_recurrence_bound(self, table3):
        lucas = next(r for r in table3 if r.benchmark == "lucas")
        assert lucas.avg_mii == pytest.approx(62, abs=2)
        assert lucas.tms_cdelay >= lucas.avg_mii

    def test_equake_matches_paper_row(self, table3):
        eq = next(r for r in table3 if r.benchmark == "equake")
        assert eq.avg_mii == pytest.approx(20, abs=2)
        assert eq.avg_ldp == pytest.approx(26, abs=2)
        assert eq.tms_ii == pytest.approx(27, abs=3)
        assert eq.tms_cdelay == pytest.approx(6, abs=2)
        assert eq.tms_maxlive == pytest.approx(31, abs=6)

    def test_fig5_all_positive_lucas_least(self, table3):
        rows = run_fig5(iterations=400, table3_rows=table3)
        assert all(r.loop_speedup > 1.0 for r in rows)
        assert min(rows, key=lambda r: r.loop_speedup).benchmark == "lucas"
        assert max(rows, key=lambda r: r.program_speedup).benchmark == "equake"

    def test_fig6_stall_shape(self, table3):
        rows = run_fig6(iterations=400, table3_rows=table3)
        by = {r.benchmark: r for r in rows}
        for name in ("art", "equake", "fma3d"):
            assert by[name].stall_reduction > 0.5
        assert by["lucas"].stall_reduction == min(
            r.stall_reduction for r in rows)
