"""Swing Modulo Scheduling (Llosa, PACT'96) — the baseline.

The algorithm the paper implements in GCC 4.1.1 and extends into TMS:

1. compute ``MII = max(ResMII, RecMII)``;
2. order nodes with the SCC-prioritised swing ordering;
3. for each candidate II starting at MII: place each node at the first
   conflict-free slot of its scheduling window (scanned toward its already
   scheduled neighbours, minimising value lifetimes — the
   "lifetime-minimal" strategy the paper's Section 4.1 critiques);
4. if any node cannot be placed, give up on this II and restart with
   ``II + 1``.

Placement runs on the unified engine
(:class:`repro.sched.engine.PlacementEngine`): SMS is the engine's
restart discipline under the default first-fit policy (:meth:`try_ii`);
TMS passes a full :class:`~repro.sched.engine.policy.SlotPolicy` via
:meth:`try_policy`.
"""

from __future__ import annotations

from ..config import SchedulerConfig
from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..graph.mii import compute_mii
from ..graph.paths import compute_metrics, longest_dependence_path
from ..machine.resources import ResourceModel
from .engine import PlacementEngine, SlotPolicy
from .ordering import compute_node_order_with_directions
from .schedule import Schedule, validate_schedule

__all__ = ["SwingModuloScheduler", "schedule_sms"]

#: extra II headroom beyond max(MII, LDP) before declaring failure.
_II_SLACK = 16


class SwingModuloScheduler:
    """SMS over one DDG + resource model."""

    algorithm_name = "SMS"

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None) -> None:
        self.ddg = ddg
        self.resources = resources
        self.config = config or SchedulerConfig()
        self.metrics = compute_metrics(ddg)
        self.order, self.order_directions = compute_node_order_with_directions(
            ddg, self.metrics)
        self.mii = compute_mii(ddg, resources)
        self.ldp = longest_dependence_path(ddg)
        self.engine = PlacementEngine(ddg, resources, self.metrics)
        #: anchor unconstrained seeds at the top of their II range (TMS
        #: sets this; see the window table's seed_high).
        self.seed_high = False

    # -- public API -----------------------------------------------------------

    def max_ii(self) -> int:
        """Search bound: the paper bounds II by the longest dependence
        path; we add slack for resource-bound corner cases."""
        base = max(self.mii, self.ldp)
        return int(base * self.config.max_ii_factor) + _II_SLACK

    def schedule(self) -> Schedule:
        """Find the lowest-II valid schedule (validated before return)."""
        for ii in range(self.mii, self.max_ii() + 1):
            slots = self.try_ii(ii)
            if slots is not None:
                sched = Schedule(self.ddg, ii, slots,
                                 algorithm=self.algorithm_name,
                                 meta={"mii": self.mii, "ldp": self.ldp})
                validate_schedule(sched, self.resources)
                return sched
        raise SchedulingError(
            f"{self.algorithm_name} failed on {self.ddg.name!r}: no valid "
            f"schedule with II <= {self.max_ii()} (MII={self.mii})")

    # -- one scheduling attempt ------------------------------------------------

    def try_policy(self, ii: int,
                   policy: SlotPolicy | None = None) -> dict[str, int] | None:
        """Attempt a schedule at the given II under ``policy`` (first-fit
        when None).  Returns the slot map, or None on failure."""
        return self.engine.try_place(ii, self.order, self.order_directions,
                                     policy, alg=self.algorithm_name,
                                     seed_high=self.seed_high)

    def try_ii(self, ii: int) -> dict[str, int] | None:
        """Attempt a first-fit schedule at the given II: each node takes
        the first conflict-free slot in window order — SMS's
        lifetime-minimal strategy.  Returns the slot map, or None on
        failure."""
        return self.try_policy(ii)


def schedule_sms(ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None) -> Schedule:
    """Convenience wrapper: SMS-schedule ``ddg``."""
    return SwingModuloScheduler(ddg, resources, config).schedule()
