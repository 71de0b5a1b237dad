"""Ablations of the design choices DESIGN.md calls out.

* ``run_pmax_sweep`` — the paper's "several values for P_max can be tried":
  how the threshold trades misspeculation frequency against C_delay/II.
* ``run_comm_latency_sweep`` — sensitivity to the scalar-operand-network
  latency (1/3/6-cycle; the paper's machine uses 3).
* ``run_core_sweep`` — 2/4/8 cores: the objective F depends on ncore, so
  TMS picks different (II, C_delay) trade-offs per machine width.
* ``run_scheduler_comparison`` — SMS vs IMS vs Huff vs TMS kernels on the
  SpMT machine (the paper: "our work is not tied to any existing modulo
  scheduling algorithm"; Huff's lifetime-sensitive scheduler is its
  reference [9]).

Each sweep point is one ``Session.compile_many`` over the selected loops
and one ``Session.simulate_many`` over their kernels, through the process
session.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig, SchedulerConfig
from ..errors import SchedulingError
from ..machine.resources import ResourceModel
from ..sched.huff import HuffModuloScheduler
from ..sched.ims import IterativeModuloScheduler
from ..workloads.doacross import DOACROSS_LOOPS
from .pipeline import AlgResult
from .report import format_table

__all__ = [
    "PmaxPoint",
    "render_scheduler_comparison",
    "run_comm_latency_sweep",
    "run_core_sweep",
    "run_granularity_sweep",
    "run_pmax_sweep",
    "run_scheduler_comparison",
]


@dataclass(frozen=True)
class PmaxPoint:
    p_max: float
    tms_ii: float
    tms_cdelay: float
    misspec_frequency: float
    cycles_per_iteration: float


def _selected_loops(benchmarks: list[str] | None) -> list:
    return [sl.loop for sl in DOACROSS_LOOPS
            if benchmarks is None or sl.benchmark in benchmarks]


def _tms_averages(loops: list, arch: ArchConfig,
                  config: SchedulerConfig | None, iterations: int,
                  jobs: int | None) -> tuple[float, float, float, float]:
    """One sweep point: compile ``loops`` and run their TMS kernels.
    Returns the average TMS II, C_delay, misspeculation frequency and
    cycles per iteration."""
    from ..session import get_session
    session = get_session()
    compiled = session.compile_many(loops, arch, config=config, jobs=jobs)
    stats = session.simulate_many([c.tms for c in compiled], arch,
                                  iterations, jobs=jobs)
    n = len(compiled)
    return (sum(c.tms.ii for c in compiled) / n,
            sum(c.tms.c_delay for c in compiled) / n,
            sum(s.misspec_frequency for s in stats) / n,
            sum(s.cycles_per_iteration for s in stats) / n)


def run_pmax_sweep(p_values: tuple[float, ...] = (0.0, 0.01, 0.05, 0.2, 1.0),
                   arch: ArchConfig | None = None,
                   iterations: int = 500,
                   benchmarks: list[str] | None = None,
                   jobs: int | None = None) -> list[PmaxPoint]:
    arch = arch or ArchConfig.paper_default()
    loops = _selected_loops(benchmarks)
    return [PmaxPoint(p_max, *_tms_averages(
                loops, arch, SchedulerConfig(p_max=p_max), iterations, jobs))
            for p_max in p_values]


def run_comm_latency_sweep(latencies: tuple[int, ...] = (1, 3, 6),
                           iterations: int = 500,
                           benchmarks: list[str] | None = None,
                           jobs: int | None = None) -> list[dict]:
    """TMS quality vs operand-network latency."""
    loops = _selected_loops(benchmarks)
    out: list[dict] = []
    for lat in latencies:
        arch = ArchConfig.paper_default().with_reg_comm_latency(lat)
        _ii, c_delay, _misspec, cpi = _tms_averages(
            loops, arch, None, iterations, jobs)
        out.append({
            "reg_comm_latency": lat,
            "avg_c_delay": c_delay,
            "avg_cycles_per_iteration": cpi,
        })
    return out


def run_core_sweep(cores: tuple[int, ...] = (2, 4, 8),
                   iterations: int = 500,
                   benchmarks: list[str] | None = None,
                   jobs: int | None = None) -> list[dict]:
    """TMS scaling with core count."""
    loops = _selected_loops(benchmarks)
    out: list[dict] = []
    for ncore in cores:
        arch = ArchConfig.paper_default().with_cores(ncore)
        ii, c_delay, _misspec, cpi = _tms_averages(
            loops, arch, None, iterations, jobs)
        out.append({
            "ncore": ncore,
            "avg_tms_ii": ii,
            "avg_c_delay": c_delay,
            "avg_cycles_per_iteration": cpi,
        })
    return out


def _scheduled(scheduler, arch: ArchConfig) -> AlgResult | None:
    try:
        return AlgResult.from_schedule(scheduler.schedule(), arch)
    except SchedulingError:
        return None


def run_scheduler_comparison(arch: ArchConfig | None = None,
                             iterations: int = 500,
                             benchmarks: list[str] | None = None
                             ) -> list[dict]:
    """SMS vs IMS vs Huff vs TMS kernels executed on the SpMT machine.

    A scheduler that finds no schedule for a loop (Huff on lucas_fft)
    has no ``_ii``/``_cdelay``/``_cpi`` entries in that loop's row."""
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    session = get_session()
    loops = _selected_loops(benchmarks)
    out: list[dict] = []
    kernels: list[tuple[dict, str, AlgResult]] = []
    for loop, compiled in zip(loops, session.compile_many(loops, arch,
                                                          resources)):
        algs = {
            "sms": compiled.sms,
            "ims": _scheduled(
                IterativeModuloScheduler(compiled.ddg, resources), arch),
            "huff": _scheduled(
                HuffModuloScheduler(compiled.ddg, resources), arch),
            "tms": compiled.tms,
        }
        row = {"loop": loop.name}
        for name, alg in algs.items():
            if alg is not None:
                row[f"{name}_ii"] = alg.ii
                row[f"{name}_cdelay"] = alg.c_delay
                kernels.append((row, name, alg))
        out.append(row)
    stats = session.simulate_many([alg for _r, _n, alg in kernels], arch,
                                  iterations)
    for (row, name, _alg), s in zip(kernels, stats):
        row[f"{name}_cpi"] = s.cycles_per_iteration
    return out


def render_scheduler_comparison(rows: list[dict]) -> str:
    names = ("SMS", "IMS", "Huff", "TMS")
    return format_table(
        ["Loop"] + [f"{name} cyc/iter" for name in names],
        [[r["loop"]] + [r.get(f"{name.lower()}_cpi", "—") for name in names]
         for r in rows],
        title="Ablation: SMS vs IMS vs Huff vs TMS kernels on the SpMT "
              "machine (— = no schedule).")


def run_granularity_sweep(factors: tuple[int, ...] = (1, 2, 4),
                          arch: ArchConfig | None = None,
                          iterations: int = 500,
                          benchmarks: list[str] | None = None
                          ) -> list[dict]:
    """Thread-granularity sweep via loop unrolling (the paper's future
    work): each SpMT thread executes ``factor`` original iterations,
    trading communication frequency against II and speculation
    granularity.  Reported cycles are normalised per *original*
    iteration."""
    from ..ir.unroll import unroll_loop
    from ..session import get_session

    arch = arch or ArchConfig.paper_default()
    session = get_session()
    # keep the sweep tractable: fine-grain loops only
    loops = [loop for loop in _selected_loops(benchmarks)
             if len(loop) * max(factors) <= 80]
    out: list[dict] = []
    for factor in factors:
        compiled = session.compile_many(
            [unroll_loop(loop, factor) for loop in loops], arch)
        stats = session.simulate_many([c.tms for c in compiled], arch,
                                      max(iterations // factor, 64))
        n = len(compiled)
        out.append({
            "unroll_factor": factor,
            "avg_tms_ii": sum(c.tms.ii for c in compiled) / n,
            "avg_cycles_per_orig_iteration":
                sum(s.cycles_per_iteration / factor for s in stats) / n,
            "avg_pairs_per_orig_iteration":
                sum(c.tms.pipelined.comm.pairs_per_iteration / factor
                    for c in compiled) / n,
        })
    return out
