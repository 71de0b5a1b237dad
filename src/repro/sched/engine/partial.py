"""The incremental partial schedule: MRT + slots.

:class:`PartialSchedule` is the engine's mutable state for one placement
attempt.  It subsumes :class:`repro.machine.reservation.ModuloReservationTable`
with a flat list-of-int-rows layout and per-node pre-resolved FU specs
(from :class:`~repro.sched.engine.context.EngineContext`), making the
resource probe — by far the hottest call of a modulo-scheduling search —
a few list indexings with no enum hashing or spec lookups.
"""

from __future__ import annotations

from ...errors import MachineError
from .context import EngineContext

__all__ = ["PartialSchedule"]


class PartialSchedule:
    """Slots + modulo reservation state for one attempt at one II."""

    __slots__ = ("ii", "ctx", "slots", "_issue_width", "_spec", "_fu_use",
                 "_issue_use")

    def __init__(self, ctx: EngineContext, ii: int) -> None:
        if ii < 1:
            raise MachineError(f"II must be >= 1, got {ii}")
        self.ii = ii
        self.ctx = ctx
        self.slots: dict[str, int] = {}
        self._issue_width = ctx.issue_width
        self._spec = ctx.spec
        self._fu_use: list[list[int]] = [[0] * ctx.n_fu for _ in range(ii)]
        self._issue_use: list[int] = [0] * ii

    # -- queries -----------------------------------------------------------

    def fits(self, name: str, cycle: int) -> bool:
        """Resource probe: O(1) for pipelined units (the common case)."""
        ii = self.ii
        row0 = cycle % ii
        if self._issue_use[row0] >= self._issue_width:
            return False
        fu, count, occ = self._spec[name]
        fu_use = self._fu_use
        if occ == 1:
            return fu_use[row0][fu] < count
        if occ >= ii:
            # a single op monopolises every row of this class; it fits
            # only if no other op of the class is present anywhere.
            for row in fu_use:
                if row[fu] >= count:
                    return False
            return True
        for k in range(occ):
            if fu_use[(cycle + k) % ii][fu] >= count:
                return False
        return True

    def occupancy_rows(self, name: str, cycle: int) -> list[int]:
        occ = min(self._spec[name][2], self.ii)
        return [(cycle + k) % self.ii for k in range(occ)]

    def fu_index(self, name: str) -> int:
        return self._spec[name][0]

    def __contains__(self, name: str) -> bool:
        return name in self.slots

    def __len__(self) -> int:
        return len(self.slots)

    # -- mutation ------------------------------------------------------------

    def place(self, name: str, cycle: int) -> None:
        if name in self.slots:
            raise MachineError(f"instruction {name!r} already placed")
        if not self.fits(name, cycle):
            raise MachineError(
                f"cannot place {name!r} at cycle {cycle} (II={self.ii}): "
                f"resource conflict")
        fu = self._spec[name][0]
        for row in self.occupancy_rows(name, cycle):
            self._fu_use[row][fu] += 1
        self._issue_use[cycle % self.ii] += 1
        self.slots[name] = cycle

    def remove(self, name: str) -> None:
        cycle = self.slots.pop(name, None)
        if cycle is None:
            raise MachineError(f"instruction {name!r} is not placed")
        fu = self._spec[name][0]
        for row in self.occupancy_rows(name, cycle):
            self._fu_use[row][fu] -= 1
        self._issue_use[cycle % self.ii] -= 1
