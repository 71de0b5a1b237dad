"""Table 2: SMS vs TMS over the synthetic SPECfp2000 suite.

For every benchmark, compile all its loops with both algorithms and report
the per-benchmark averages of the traditional modulo-scheduling metrics:
#Loops, AVG #Inst, AVG MII, and per-algorithm II / MaxLive / C_delay.

Expected shape (paper Section 5.1): TMS has larger II but much smaller
C_delay than SMS; MaxLive slightly larger under TMS; the gap between II and
C_delay (exposed TLP) much wider under TMS.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig, SchedulerConfig
from ..machine.resources import ResourceModel
from ..workloads.specfp import SPECFP_BENCHMARKS, BenchmarkSpec, generate_benchmark_loops
from .pipeline import CompiledLoop
from .report import format_table

__all__ = ["Table2Row", "run_table2", "render_table2"]


@dataclass(frozen=True)
class Table2Row:
    """One benchmark's aggregate row."""

    benchmark: str
    n_loops: int
    avg_inst: float
    avg_mii: float
    sms_ii: float
    sms_maxlive: float
    sms_cdelay: float
    tms_ii: float
    tms_maxlive: float
    tms_cdelay: float
    compiled: tuple[CompiledLoop, ...] = ()

    @property
    def tlp_gap_sms(self) -> float:
        return self.sms_ii - self.sms_cdelay

    @property
    def tlp_gap_tms(self) -> float:
        return self.tms_ii - self.tms_cdelay


def run_table2(arch: ArchConfig | None = None,
               config: SchedulerConfig | None = None,
               max_loops: int | None = None,
               benchmarks: list[str] | None = None,
               keep_compiled: bool = True,
               session=None, jobs: int | None = None,
               workload_seed: int | None = None) -> list[Table2Row]:
    """Compile the suite and aggregate per benchmark.

    ``max_loops`` caps each benchmark's population for quick runs;
    ``benchmarks`` selects a subset by name.  Compilation goes through
    ``session`` (default: the process session, so reruns hit the cache)
    and fans cache misses out over ``jobs`` processes.
    ``workload_seed`` perturbs the synthetic populations (CLI
    ``--seed``); ``None``/0 keeps the canonical Table-2 suite.
    """
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    config = config or SchedulerConfig()
    resources = ResourceModel.default(arch.issue_width)
    session = session or get_session()
    rows: list[Table2Row] = []
    for spec in SPECFP_BENCHMARKS:
        if benchmarks is not None and spec.name not in benchmarks:
            continue
        loops = generate_benchmark_loops(spec, max_loops=max_loops,
                                         seed=workload_seed)
        compiled = session.compile_many(loops, arch, resources, config,
                                        jobs=jobs)
        n = len(compiled)
        rows.append(Table2Row(
            benchmark=spec.name,
            n_loops=n,
            avg_inst=sum(c.n_inst for c in compiled) / n,
            avg_mii=sum(c.mii for c in compiled) / n,
            sms_ii=sum(c.sms.ii for c in compiled) / n,
            sms_maxlive=sum(c.sms.max_live for c in compiled) / n,
            sms_cdelay=sum(c.sms.c_delay for c in compiled) / n,
            tms_ii=sum(c.tms.ii for c in compiled) / n,
            tms_maxlive=sum(c.tms.max_live for c in compiled) / n,
            tms_cdelay=sum(c.tms.c_delay for c in compiled) / n,
            compiled=tuple(compiled) if keep_compiled else (),
        ))
    return rows


def render_table2(rows: list[Table2Row], *, with_paper: bool = True) -> str:
    """Render in the paper's Table 2 layout (optionally interleaving the
    paper's reported values for comparison)."""
    headers = ["Benchmark", "#Loops", "AVG #Inst", "AVG MII",
               "SMS II", "SMS MaxLive", "SMS Cdelay",
               "TMS II", "TMS MaxLive", "TMS Cdelay"]
    table_rows = []
    by_name = {spec.name: spec for spec in SPECFP_BENCHMARKS}
    for row in rows:
        table_rows.append([
            row.benchmark, row.n_loops, row.avg_inst, row.avg_mii,
            row.sms_ii, row.sms_maxlive, row.sms_cdelay,
            row.tms_ii, row.tms_maxlive, row.tms_cdelay,
        ])
        paper = by_name[row.benchmark].paper if with_paper else None
        if paper is not None:
            table_rows.append([
                f"  (paper)", "", "", paper.mii,
                paper.sms_ii, paper.sms_maxlive, paper.sms_cdelay,
                paper.tms_ii, paper.tms_maxlive, paper.tms_cdelay,
            ])
    return format_table(
        headers, table_rows,
        title="Table 2. SMS and TMS compared using traditional metrics.")
