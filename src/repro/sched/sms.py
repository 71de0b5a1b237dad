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
alone — node metrics, the swing order, MII, LDP, the II search bound and
the placement engine's context and window table — is one
:class:`LoopAnalysis`.  A compile builds it once and hands it to the
SMS, TMS and IMS schedulers it runs; a scheduler built without one
analyses the DDG itself.  :class:`ModuloScheduler` is the lowest-II
search they all share.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..graph.mii import compute_mii
from ..graph.paths import compute_metrics, longest_dependence_path
from ..machine.resources import ResourceModel
from .engine import PlacementEngine, SlotPolicy
from .ordering import compute_node_order_with_directions
from .schedule import Schedule, validate_schedule

__all__ = ["LoopAnalysis", "ModuloScheduler", "SwingModuloScheduler",
           "schedule_sms"]

#: the II search bound is ``_MAX_II_FACTOR * max(MII, LDP) + _II_SLACK``:
#: the paper bounds II by the longest dependence path; the factor and
#: the slack cover resource-bound corner cases.
_MAX_II_FACTOR = 2
_II_SLACK = 16


class LoopAnalysis:
    """The per-(DDG, resources) facts every modulo scheduler of a compile
    reads: the swing order and its directions, MII, LDP, the largest II
    a search tries (``max_ii``), and the :class:`PlacementEngine` (its
    context, with the node metrics, and its window table).  ``mii`` and
    ``ldp`` are computed unless given."""

    __slots__ = ("order", "directions", "mii", "ldp", "max_ii", "engine")

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 mii: int | None = None, ldp: int | None = None) -> None:
        metrics = compute_metrics(ddg)
        self.order, self.directions = compute_node_order_with_directions(
            ddg, metrics)
        self.mii = compute_mii(ddg, resources) if mii is None else mii
        self.ldp = longest_dependence_path(ddg) if ldp is None else ldp
        self.max_ii = _MAX_II_FACTOR * max(self.mii, self.ldp) + _II_SLACK
        self.engine = PlacementEngine(ddg, resources, metrics)


class ModuloScheduler:
    """The lowest-II search over one DDG + resource model: :meth:`try_ii`
    (the algorithm's one attempt) at every II from MII to ``max_ii``,
    keeping the first that places every node."""

    algorithm_name: str

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 analysis: LoopAnalysis | None = None) -> None:
        self.ddg = ddg
        self.resources = resources
        analysis = analysis or LoopAnalysis(ddg, resources)
        self.order = analysis.order
        self.order_directions = analysis.directions
        self.mii = analysis.mii
        self.ldp = analysis.ldp
        self.max_ii = analysis.max_ii
        self.engine = analysis.engine

    def try_ii(self, ii: int) -> dict[str, int] | None:
        """One scheduling attempt at ``ii``: the slot map, or None."""
        raise NotImplementedError

    def schedule(self) -> Schedule:
        """Find the lowest-II valid schedule (validated before return)."""
        ii, slots = self._lowest_ii(self.try_ii)
        sched = Schedule(self.ddg, ii, slots, algorithm=self.algorithm_name,
                         meta={"mii": self.mii, "ldp": self.ldp})
        validate_schedule(sched, self.resources)
        return sched

    def _lowest_ii(self, attempt: Callable[[int], dict[str, int] | None]
                   ) -> tuple[int, dict[str, int]]:
        """The lowest II from MII to ``max_ii`` where ``attempt`` gives a
        slot map, and that map."""
        for ii in range(self.mii, self.max_ii + 1):
            slots = attempt(ii)
            if slots is not None:
                return ii, slots
        raise SchedulingError(
            f"{self.algorithm_name} failed on {self.ddg.name!r}: no valid "
            f"schedule with II <= {self.max_ii} (MII={self.mii})")


class SwingModuloScheduler(ModuloScheduler):
    """SMS over one DDG + resource model."""

    algorithm_name = "SMS"

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


def schedule_sms(ddg: DDG, resources: ResourceModel) -> Schedule:
    """Convenience wrapper: SMS-schedule ``ddg``."""
    return SwingModuloScheduler(ddg, resources).schedule()
