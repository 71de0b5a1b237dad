"""Unit tests for the unified placement engine (repro.sched.engine)."""

from __future__ import annotations

import random

import pytest

from repro.errors import MachineError
from repro.machine.reservation import ModuloReservationTable
from repro.sched import (
    PartialSchedule,
    PlacementEngine,
    Schedule,
    SlotPolicy,
    schedule_ims,
    schedule_tms,
)
from repro.sched.engine import EngineContext, WindowTable

from .oracle import compute_window


def _random_partial(ddg, ii, rng):
    """A random (dependence-oblivious) partial slot assignment — windows
    are pure functions of the slots, so legality doesn't matter here."""
    names = list(ddg.node_names)
    rng.shuffle(names)
    k = rng.randrange(len(names) + 1)
    return {v: rng.randrange(0, 4 * ii) for v in names[:k]}


@pytest.mark.parametrize("ddg_fixture", ["fig1_ddg", "axpy_ddg",
                                         "recurrent_ddg"])
def test_window_table_matches_compute_window(ddg_fixture, resources, request):
    """One folded window table per DDG reproduces compute_window exactly
    at every II — bounds AND scan direction — on random partial
    schedules."""
    ddg = request.getfixturevalue(ddg_fixture)
    ctx = EngineContext(ddg, resources)
    table = WindowTable(ctx)
    rng = random.Random(1234)
    for ii in (2, 3, 5, 8):
        for _ in range(25):
            partial = _random_partial(ddg, ii, rng)
            for v in ddg.node_names:
                if v in partial:
                    continue
                for direction in ("top-down", "bottom-up"):
                    for seed_high in (False, True):
                        ref = compute_window(ddg, v, partial, ii,
                                             ctx.metrics, direction,
                                             seed_high=seed_high)
                        got = table.window(v, partial, ii,
                                           direction == "bottom-up",
                                           seed_high)
                        assert got == (ref.start, ref.end,
                                       ref.direction == "down"), \
                            f"{ddg.name}/{v} ii={ii} {direction} " \
                            f"seed_high={seed_high}"


def test_partial_schedule_matches_mrt(recurrent_ddg, resources):
    """fits/place/remove agree with ModuloReservationTable on random
    operation sequences (the engine's MRT replacement is behaviourally
    identical)."""
    ddg = recurrent_ddg
    ctx = EngineContext(ddg, resources)
    opcode = {n.name: n.opcode for n in ddg.nodes}
    rng = random.Random(99)
    for ii in (2, 4, 7):
        ps = PartialSchedule(ctx, ii)
        mrt = ModuloReservationTable(ii, resources)
        placed: dict[str, int] = {}
        for _ in range(300):
            v = rng.choice(ddg.node_names)
            if v in placed:
                ps.remove(v)
                mrt.remove(v)
                del placed[v]
                continue
            cycle = rng.randrange(0, 3 * ii)
            assert ps.fits(v, cycle) == mrt.fits(v, opcode[v], cycle)
            assert ps.occupancy_rows(v, cycle) == \
                mrt.occupancy_rows(opcode[v], cycle)
            if ps.fits(v, cycle):
                ps.place(v, cycle)
                mrt.place(v, opcode[v], cycle)
                placed[v] = cycle
        assert dict(ps.slots) == placed


def test_partial_schedule_guards(fig1_ddg, fig1_machine):
    ps = PartialSchedule(EngineContext(fig1_ddg, fig1_machine), 4)
    name = fig1_ddg.node_names[0]
    ps.place(name, 0)
    with pytest.raises(MachineError, match="already placed"):
        ps.place(name, 1)
    ps.remove(name)
    with pytest.raises(MachineError, match="not placed"):
        ps.remove(name)
    with pytest.raises(MachineError, match="II must be"):
        PartialSchedule(EngineContext(fig1_ddg, fig1_machine), 0)


def test_try_place_first_fit_equals_sms(axpy_ddg, resources):
    """PlacementEngine.try_place under the default policy reproduces the
    SMS scheduler's slots at the same II."""
    from repro.sched.sms import SwingModuloScheduler

    sms = SwingModuloScheduler(axpy_ddg, resources)
    sched = sms.schedule()
    engine = PlacementEngine(axpy_ddg, resources)
    slots = engine.try_place(sched.ii, sms.order, sms.order_directions,
                             None, alg="SMS")
    assert slots == sched.slots


def test_slot_policy_subclass_drives_every_hook(axpy_ddg, resources):
    selected: list[str] = []
    placed: list[str] = []
    attempts: list[object] = []

    class Recording(SlotPolicy):
        def begin_attempt(self, partial):
            attempts.append(partial)

        def select(self, v, start, end, scan_down, ps):
            selected.append(v)
            return super().select(v, start, end, scan_down, ps)

        def on_place(self, v, c, p):
            assert p[v] == c
            placed.append(v)

    engine = PlacementEngine(axpy_ddg, resources)
    order = list(axpy_ddg.node_names)
    slots = engine.try_place(8, order, {}, Recording(), alg="SMS")
    assert slots is not None
    assert len(attempts) == 1
    assert selected == placed == order
    # the base select is first fit: the subclass changed nothing
    assert slots == engine.try_place(8, order, {}, None, alg="SMS")


def test_slot_policy_defaults_are_inert():
    policy = SlotPolicy()
    assert policy.on_place is None
    policy.begin_attempt(None)  # no-op


def test_base_select_is_first_fit(fig1_ddg, fig1_machine):
    """The base policy takes the first slot in window order that fits
    the resources and counts the rows it evaluated."""
    ps = PartialSchedule(EngineContext(fig1_ddg, fig1_machine), 4)
    v, *others = fig1_ddg.node_names
    policy = SlotPolicy()
    assert policy.select(v, 3, 6, False, ps) == (3, 1)
    assert policy.select(v, 3, 6, True, ps) == (6, 1)
    assert policy.select(v, 6, 3, False, ps) == (None, 0)
    for u in others:  # fill cycle 3 until v no longer fits there
        if ps.fits(v, 3) and ps.fits(u, 3):
            ps.place(u, 3)
    assert not ps.fits(v, 3)
    assert policy.select(v, 3, 6, False, ps) == (4, 2)
    assert policy.select(v, 3, 3, False, ps) == (None, 1)


def test_engine_metrics_published(axpy_ddg, resources, arch, registry):
    schedule_tms(axpy_ddg, resources, arch)   # slot-policy placement
    schedule_ims(axpy_ddg, resources)         # backtracking placement
    snap = {name: s.get("value", 0) for name, s in registry.snapshot().items()}
    assert snap.get("sched.engine.attempts", 0) > 0
    assert snap.get("sched.engine.slot_probes", 0) > 0
    # one name per counter: no second copy of the attempt count
    assert "sched.attempts" not in snap


def test_schedule_round_trip_still_validates(fig1_ddg, fig1_machine):
    """The engine's slot maps build real, validating Schedules."""
    from repro.sched import validate_schedule
    from repro.sched.sms import SwingModuloScheduler

    sms = SwingModuloScheduler(fig1_ddg, fig1_machine)
    sched = sms.schedule()
    validate_schedule(Schedule(fig1_ddg, sched.ii, dict(sched.slots),
                               algorithm="SMS"), fig1_machine)
