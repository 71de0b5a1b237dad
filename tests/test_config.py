"""Configuration dataclasses."""

import pytest

from repro.config import ArchConfig, SchedulerConfig, SimConfig
from repro.errors import MachineError


class TestArchConfig:
    def test_paper_default_is_table1(self):
        a = ArchConfig.paper_default()
        assert (a.ncore, a.reg_comm_latency, a.spawn_overhead,
                a.commit_overhead, a.invalidation_overhead) == (4, 3, 3, 2, 15)
        assert (a.l1_hit_latency, a.l2_hit_latency, a.l2_miss_latency) == \
            (3, 12, 80)

    def test_single_core(self):
        a = ArchConfig.single_core()
        assert a.ncore == 1 and a.spawn_overhead == 0

    def test_with_helpers(self):
        a = ArchConfig.paper_default()
        assert a.with_cores(8).ncore == 8
        assert a.with_reg_comm_latency(1).reg_comm_latency == 1
        assert a.ncore == 4  # original untouched (frozen)

    @pytest.mark.parametrize("kw", [
        dict(ncore=0), dict(issue_width=0), dict(l1_miss_rate=1.5),
        dict(spawn_overhead=-1), dict(l2_miss_rate=-0.1),
    ])
    def test_validation(self, kw):
        with pytest.raises(MachineError):
            ArchConfig(**kw)

    def test_as_table_rows(self):
        rows = ArchConfig.paper_default().as_table()
        assert any("SEND/RECV" in k for k, _v in rows)


class TestSchedulerConfig:
    def test_defaults(self):
        c = SchedulerConfig()
        assert 0 < c.p_max <= 1 and c.speculation

    @pytest.mark.parametrize("kw", [
        dict(p_max=1.5), dict(p_max=-0.1), dict(p_max=float("nan")),
    ])
    def test_validation(self, kw):
        with pytest.raises(MachineError):
            SchedulerConfig(**kw)


class TestSimConfig:
    def test_helpers(self):
        c = SimConfig(iterations=10)
        assert c.with_iterations(20).iterations == 20
        assert c.with_seed(5).seed == 5

    def test_validation(self):
        with pytest.raises(MachineError):
            SimConfig(iterations=0)
