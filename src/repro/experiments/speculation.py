"""Section 5.2's speculation ablation.

Recompile the Table-3 loops with speculation disabled — every inter-thread
memory dependence must be synchronised (joins C1, gets SEND/RECV channels,
never misspeculates) — and compare the TMS speedups over single-threaded
code with and without speculation.

Paper: "the performance gain for the loop (program) would be reduced by
19.0% for equake and 21.4% for fma3d otherwise", and the misspeculation
frequency with speculation on stays below 0.1%.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..config import ArchConfig, SchedulerConfig
from ..machine.resources import ResourceModel
from ..spmt.single import simulate_sequential
from ..workloads.doacross import DOACROSS_LOOPS
from .report import format_table, pct

__all__ = ["SpeculationRow", "run_speculation", "render_speculation"]


@dataclass(frozen=True)
class SpeculationRow:
    """One loop's with/without-speculation comparison."""

    loop: str
    benchmark: str
    speedup_with_spec: float
    speedup_without_spec: float
    misspec_frequency: float

    @property
    def gain_reduction(self) -> float:
        """Fraction of the speculative *gain* lost when speculation is
        disabled (the paper's 19.0% / 21.4% metric)."""
        gain_with = self.speedup_with_spec - 1.0
        gain_without = self.speedup_without_spec - 1.0
        if gain_with <= 0:
            return 0.0
        return max(0.0, (gain_with - gain_without) / gain_with)


def run_speculation(arch: ArchConfig | None = None,
                    config: SchedulerConfig | None = None,
                    iterations: int = 1000,
                    benchmarks: list[str] | None = None,
                    jobs: int | None = None) -> list[SpeculationRow]:
    """Compile the selected loops with and without speculation (one
    ``compile_many`` each) and run both sets of TMS kernels in one
    ``simulate_many``, through the process session."""
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    config = config or SchedulerConfig()
    resources = ResourceModel.default(arch.issue_width)
    session = get_session()
    selected = [sl for sl in DOACROSS_LOOPS
                if benchmarks is None or sl.benchmark in benchmarks]
    loops = [sl.loop for sl in selected]
    with_spec = session.compile_many(loops, arch, resources, config,
                                     jobs=jobs)
    without_spec = session.compile_many(
        loops, arch, resources, replace(config, speculation=False),
        jobs=jobs)
    stats = session.simulate_many(
        [c.tms for c in with_spec + without_spec], arch, iterations,
        jobs=jobs)
    n = len(selected)
    rows: list[SpeculationRow] = []
    for sl, compiled, tms_on, tms_off in zip(selected, with_spec,
                                             stats[:n], stats[n:]):
        single = simulate_sequential(compiled.ddg, resources, iterations)
        rows.append(SpeculationRow(
            loop=sl.loop.name,
            benchmark=sl.benchmark,
            speedup_with_spec=single.total_cycles / tms_on.total_cycles,
            speedup_without_spec=single.total_cycles / tms_off.total_cycles,
            misspec_frequency=tms_on.misspec_frequency,
        ))
    return rows


def render_speculation(rows: list[SpeculationRow]) -> str:
    table_rows = [
        [r.loop, r.benchmark,
         pct(r.speedup_with_spec - 1.0), pct(r.speedup_without_spec - 1.0),
         pct(-r.gain_reduction), f"{100 * r.misspec_frequency:.3f}%"]
        for r in rows
    ]
    return format_table(
        ["Loop", "Benchmark", "speedup (spec on)", "speedup (spec off)",
         "gain delta", "misspec freq"],
        table_rows,
        title="Section 5.2 ablation: data speculation on vs off "
              "(paper: equake loses 19.0% of its gain, fma3d 21.4%; "
              "misspec freq < 0.1%).")
