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

Everything the schedulers derive from the DDG and the resource model
alone — node metrics, the swing order, MII, LDP and the placement
engine's context and window table — is one :class:`LoopAnalysis`.  A
compile builds it once and hands it to the SMS, TMS and IMS schedulers
it runs; a scheduler built without one analyses the DDG itself.
"""

from __future__ import annotations

from typing import Sequence

from ..config import SchedulerConfig
from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..graph.mii import compute_mii
from ..graph.paths import compute_metrics, longest_dependence_path
from ..machine.resources import ResourceModel
from .engine import PlacementEngine, SlotPolicy
from .ordering import compute_node_order_with_directions
from .schedule import Schedule, validate_schedule

__all__ = ["LoopAnalysis", "SwingModuloScheduler", "schedule_sms"]

#: extra II headroom beyond max(MII, LDP) before declaring failure.
_II_SLACK = 16


class LoopAnalysis:
    """The per-(DDG, resources) facts every modulo scheduler of a compile
    reads: the swing order and its directions, MII, LDP, and the
    :class:`PlacementEngine` (its context, with the node metrics, and
    its window table).  ``mii`` and ``ldp`` are computed unless
    given."""

    __slots__ = ("order", "directions", "mii", "ldp", "engine")

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 mii: int | None = None, ldp: int | None = None) -> None:
        metrics = compute_metrics(ddg)
        self.order, self.directions = compute_node_order_with_directions(
            ddg, metrics)
        self.mii = compute_mii(ddg, resources) if mii is None else mii
        self.ldp = longest_dependence_path(ddg) if ldp is None else ldp
        self.engine = PlacementEngine(ddg, resources, metrics)


class SwingModuloScheduler:
    """SMS over one DDG + resource model."""

    algorithm_name = "SMS"

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None,
                 analysis: LoopAnalysis | None = None) -> None:
        self.ddg = ddg
        self.resources = resources
        self.config = config or SchedulerConfig()
        analysis = analysis or LoopAnalysis(ddg, resources)
        self.order = analysis.order
        self.order_directions = analysis.directions
        self.mii = analysis.mii
        self.ldp = analysis.ldp
        self.engine = analysis.engine

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

    def try_policy(self, ii: int, policy: SlotPolicy | None = None,
                   seed_high: bool = False,
                   prefix: Sequence[int] = ()) -> dict[str, int] | None:
        """Attempt a schedule at the given II under ``policy`` (first-fit
        when None), with unconstrained seeds anchored at the top of their
        II range when ``seed_high`` and the first ``len(prefix)`` nodes
        re-placed at ``prefix`` (see
        :meth:`~repro.sched.engine.PlacementEngine.try_place`).  Returns
        the slot map, or None on failure."""
        return self.engine.try_place(ii, self.order, self.order_directions,
                                     policy, alg=self.algorithm_name,
                                     seed_high=seed_high, prefix=prefix)

    def try_ii(self, ii: int, seed_high: bool = False
               ) -> dict[str, int] | None:
        """Attempt a first-fit schedule at the given II: each node takes
        the first conflict-free slot in window order — SMS's
        lifetime-minimal strategy — with unconstrained seeds anchored
        high when ``seed_high``.  Returns the slot map, or None on
        failure."""
        return self.try_policy(ii, seed_high=seed_high)


def schedule_sms(ddg: DDG, resources: ResourceModel,
                 config: SchedulerConfig | None = None) -> Schedule:
    """Convenience wrapper: SMS-schedule ``ddg``."""
    return SwingModuloScheduler(ddg, resources, config).schedule()
