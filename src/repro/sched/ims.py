"""Iterative Modulo Scheduling (Rau, MICRO'94) — an extra baseline.

Unlike SMS, IMS backtracks: when the highest-priority unscheduled operation
has no conflict-free slot in its window, it is *forced* into its earliest
slot and every operation it conflicts with (dependence- or resource-wise) is
ejected and rescheduled.  A per-II budget bounds the effort before the II is
bumped.

Included because the paper notes TMS "is not tied to any existing modulo
scheduling algorithm"; the ablation bench compares TMS-on-SMS against plain
IMS/SMS kernels on the SpMT machine.

Placement runs on the unified engine: IMS is
:meth:`repro.sched.engine.PlacementEngine.run_backtracking`, the engine's
eviction discipline, under the default (first-fit, no-veto) policy.  It
reads MII, LDP and the engine from the compile's
:class:`~repro.sched.sms.LoopAnalysis`.
"""

from __future__ import annotations

from ..config import SchedulerConfig
from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..machine.resources import ResourceModel
from .schedule import Schedule, validate_schedule
from .sms import LoopAnalysis

__all__ = ["IterativeModuloScheduler", "schedule_ims"]

_II_SLACK = 16


class IterativeModuloScheduler:
    """Rau's IMS over one DDG + resource model."""

    algorithm_name = "IMS"

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None,
                 analysis: LoopAnalysis | None = None) -> None:
        self.ddg = ddg
        self.resources = resources
        self.config = config or SchedulerConfig()
        analysis = analysis or LoopAnalysis(ddg, resources)
        self.mii = analysis.mii
        self.ldp = analysis.ldp
        self.engine = analysis.engine

    def max_ii(self) -> int:
        base = max(self.mii, self.ldp)
        return int(base * self.config.max_ii_factor) + _II_SLACK

    def schedule(self) -> Schedule:
        for ii in range(self.mii, self.max_ii() + 1):
            slots = self._try_ii(ii)
            if slots is not None:
                sched = Schedule(self.ddg, ii, slots,
                                 algorithm=self.algorithm_name,
                                 meta={"mii": self.mii, "ldp": self.ldp})
                validate_schedule(sched, self.resources)
                return sched
        raise SchedulingError(
            f"IMS failed on {self.ddg.name!r}: no valid schedule with "
            f"II <= {self.max_ii()}")

    # -- one attempt -----------------------------------------------------------

    def _try_ii(self, ii: int) -> dict[str, int] | None:
        budget = self.config.budget_ratio_ii * len(self.ddg) + 32
        return self.engine.run_backtracking(ii, budget,
                                            alg=self.algorithm_name)


def schedule_ims(ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None) -> Schedule:
    """Convenience wrapper: IMS-schedule ``ddg``."""
    return IterativeModuloScheduler(ddg, resources, config).schedule()
