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
eviction discipline.  It reads MII, LDP and the engine from the compile's
:class:`~repro.sched.sms.LoopAnalysis`.
"""

from __future__ import annotations

from ..graph.ddg import DDG
from ..machine.resources import ResourceModel
from .schedule import Schedule
from .sms import ModuloScheduler

__all__ = ["IterativeModuloScheduler", "schedule_ims"]


class IterativeModuloScheduler(ModuloScheduler):
    """Rau's IMS over one DDG + resource model."""

    algorithm_name = "IMS"

    def try_ii(self, ii: int) -> dict[str, int] | None:
        return self.engine.run_backtracking(ii, alg=self.algorithm_name)


def schedule_ims(ddg: DDG, resources: ResourceModel) -> Schedule:
    """Convenience wrapper: IMS-schedule ``ddg``."""
    return IterativeModuloScheduler(ddg, resources).schedule()
