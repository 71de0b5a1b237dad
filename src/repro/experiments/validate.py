"""``tms-experiments validate``: cost model vs simulator, per kernel.

The Section 4.2 cost model (``T = T_nomiss + T_mis_spec``) is what TMS
*optimises*; the SpMT simulator is what the paper *measures*.  This
harness compiles the Table 2 and/or Table 3 kernel suites, asks the
model for its predicted total cycles per (kernel, algorithm) point,
simulates the same point, and assembles a
:class:`~repro.obs.report.DiscrepancyReport` — the per-kernel error
table plus aggregate MAPE that makes cost-model regressions visible.

The model is a steady-state throughput bound, so expect systematic
(not just noise-level) error on kernels where squash cascades or cache
perturbation dominate; the point of the report is that the error is
*tracked*, kernel by kernel, commit by commit.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..config import ArchConfig, SchedulerConfig
from ..costmodel.exectime import estimate_execution_time
from ..ir.loop import Loop
from ..machine.resources import ResourceModel
from ..obs.report import DiscrepancyReport, DiscrepancyRow
from ..obs.schema import write_json
from ..workloads.doacross import DOACROSS_LOOPS
from ..workloads.specfp import SPECFP_BENCHMARKS, generate_benchmark_loops

__all__ = ["run_validate", "suite_loops", "write_report_json"]

#: suites the validator knows how to enumerate
_SUITES = ("table2", "table3")


def suite_loops(suites: Sequence[str],
                max_loops: int | None) -> list[tuple[str, Loop]]:
    """(benchmark, loop) pairs of the requested kernel suites."""
    for s in suites:
        if s not in _SUITES:
            raise ValueError(f"unknown suite {s!r}; expected one of {_SUITES}")
    pairs: list[tuple[str, Loop]] = []
    if "table2" in suites:
        for spec in SPECFP_BENCHMARKS:
            for loop in generate_benchmark_loops(spec, max_loops=max_loops):
                pairs.append((spec.name, loop))
    if "table3" in suites:
        for sl in DOACROSS_LOOPS:
            pairs.append((sl.benchmark, sl.loop))
    return pairs


def run_validate(arch: ArchConfig | None = None,
                 config: SchedulerConfig | None = None, *,
                 suites: Sequence[str] = ("table2",),
                 algorithms: Sequence[str] = ("sms", "tms"),
                 max_loops: int | None = None,
                 iterations: int = 300,
                 seed: int = 0xACE5,
                 jobs: int | None = None,
                 session=None) -> DiscrepancyReport:
    """Build the discrepancy report for the requested kernel suites.

    Compilation and simulation route through ``session`` (default: the
    process session), so a warm cache makes reruns cheap; kernels whose
    compilation fails are skipped (soft-fail, like the suite drivers).
    """
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    config = config or SchedulerConfig()
    resources = ResourceModel.default(arch.issue_width)
    session = session or get_session()

    pairs = suite_loops(suites, max_loops)
    compiled = session.compile_many(
        [loop for _b, loop in pairs], arch, resources, config,
        jobs=jobs, on_error="skip")

    # one (kernel, algorithm) point per row, simulations fanned out
    points: list[tuple[str, str, str, object]] = []
    for (benchmark, _loop), comp in zip(pairs, compiled):
        if comp is None:
            continue
        for alg in algorithms:
            points.append((comp.name, benchmark, alg, getattr(comp, alg)))
    stats = session.simulate_many(
        [alg_result for _k, _b, _a, alg_result in points], arch,
        iterations, seed, jobs=jobs, on_error="skip")

    synchronize_memory = not config.speculation
    rows: list[DiscrepancyRow] = []
    for (kernel, benchmark, alg, alg_result), sim in zip(points, stats):
        if sim is None:
            continue
        est = estimate_execution_time(
            alg_result.schedule, arch, iterations,
            synchronize_memory=synchronize_memory)
        rows.append(DiscrepancyRow(
            kernel=kernel,
            benchmark=benchmark,
            algorithm=alg,
            ii=alg_result.ii,
            c_delay=est.c_delay,
            p_m=est.p_m,
            predicted_cycles=est.total,
            simulated_cycles=sim.total_cycles,
        ))
    return DiscrepancyReport(rows=tuple(rows), iterations=iterations,
                             seed=seed, ncore=arch.ncore)


def write_report_json(report: DiscrepancyReport,
                      path: str | os.PathLike) -> None:
    """Persist the report's versioned dict form as pretty JSON."""
    write_json(report.to_dict(), path)
