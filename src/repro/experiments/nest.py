"""Loop-nest strategy crossover (motivates the paper's outer-loop future
work).

For a two-level nest, sweep the inner trip count and compare cycles per
*innermost* iteration under three strategies:

* **single-threaded** — the whole nest on one core (the no-parallelism
  floor);
* **inner-TMS** — the paper's strategy: each outer iteration runs the
  TMS-parallelised inner loop, paying the per-entry live-in broadcast and
  pipeline fill;
* **outer-DOALL** — outer iterations dealt to cores; shown as a
  *hypothetical* upper bound, because the paper's Table-3 nests have
  DOACROSS outer loops ("all their enclosing loops are also DOACROSS"),
  where this strategy is simply unavailable.

Short inner loops amortise the SpMT entry costs poorly — inner-TMS only
beats single-threaded once the trip count grows.  That erosion, plus the
gap to the hypothetical outer-DOALL bound, is the motivation for
"extending TMS to also parallelise outer loops".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig, SchedulerConfig
from ..machine.resources import ResourceModel
from ..spmt.nest import simulate_nest_inner_tms, simulate_nest_outer_parallel
from ..spmt.single import simulate_sequential
from ..workloads.doacross import DOACROSS_LOOPS
from .report import format_table

__all__ = ["NestPoint", "run_nest_crossover", "render_nest_crossover"]


@dataclass(frozen=True)
class NestPoint:
    """One (loop, inner-trip) comparison."""

    loop: str
    inner_trip: int
    outer_trip: int
    single_cpi: float          # cycles per innermost iteration
    inner_tms_cpi: float
    outer_parallel_cpi: float  # hypothetical: needs a DOALL outer loop

    @property
    def tms_speedup(self) -> float:
        return self.single_cpi / self.inner_tms_cpi \
            if self.inner_tms_cpi else 1.0

    @property
    def winner(self) -> str:
        return ("inner-tms" if self.inner_tms_cpi <= self.single_cpi
                else "single-threaded")


def run_nest_crossover(inner_trips: tuple[int, ...] = (4, 16, 64, 256),
                       outer_trip: int = 64,
                       arch: ArchConfig | None = None,
                       config: SchedulerConfig | None = None,
                       benchmarks: list[str] | None = None
                       ) -> list[NestPoint]:
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    loops = [sl.loop for sl in DOACROSS_LOOPS
             if benchmarks is None or sl.benchmark in benchmarks]
    out: list[NestPoint] = []
    for compiled in get_session().compile_many(loops, arch, resources,
                                               config):
        for trip in inner_trips:
            total = outer_trip * trip
            single = simulate_sequential(compiled.ddg, resources, trip)
            inner = simulate_nest_inner_tms(
                compiled.tms.pipelined, arch, outer_trip, trip)
            outer = simulate_nest_outer_parallel(
                compiled.ddg, resources, arch, outer_trip, trip)
            out.append(NestPoint(
                loop=compiled.name,
                inner_trip=trip,
                outer_trip=outer_trip,
                single_cpi=outer_trip * single.total_cycles / total,
                inner_tms_cpi=inner.total_cycles / total,
                outer_parallel_cpi=outer.total_cycles / total,
            ))
    return out


def render_nest_crossover(points: list[NestPoint]) -> str:
    rows = [
        [p.loop, p.inner_trip, p.single_cpi, p.inner_tms_cpi,
         p.outer_parallel_cpi, p.winner]
        for p in points
    ]
    return format_table(
        ["Loop", "inner trip", "single cyc/iter", "inner-TMS cyc/iter",
         "outer-DOALL cyc/iter (hypothetical)", "winner"],
        rows,
        title="Loop-nest strategy crossover (Table-3 nests have DOACROSS "
              "outer loops, so outer-DOALL is an unreachable bound).")
