"""The TMS search only prunes (II, C_delay) candidates that replay a
failed one.

Each placed candidate leaves, per seed pass, a trail of its ``select``
calls with the running minimum ``μ`` of their divergence thresholds;
when every ``μ`` of both passes of the last candidate placed at an II
lies above a later candidate's ``C_delay``, the search marks that
candidate ``pruned`` without placing it.  Here every pruned candidate
of a traced search is placed again from scratch (no trail store) and
must fail with the same ``place`` and ``place_fail`` events, in the
same order, as the search itself emitted for the rejected candidate it
``replays``; the search emits none for a pruned one.  Checked on the
Table-3 DOACROSS kernels and the motivating kernel, under speculation on
and off, ``C_reg_com`` 1, 3 and 7 and ``P_max`` 0, 0.05 and 1 (with
speculation off, placement never reads ``P_max``, so one value covers
it).  ``lucas_fft``, whose search walks the whole 4,000-candidate budget,
runs at the default configuration only.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg
from repro.machine import LatencyModel, ResourceModel
from repro.obs.telemetry import Telemetry
from repro.sched import Schedule, ThreadSensitiveScheduler
from repro.sched.tms import MAX_CANDIDATES
from repro.workloads import DOACROSS_LOOPS, motivating_ddg, motivating_machine

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default(ARCH.issue_width)
LAT = LatencyModel.for_arch(ARCH)


def _placements(tms, ii, c_delay, p_max):
    """``(slots, events)``: one candidate placed again from scratch, with
    its ``place`` and ``place_fail`` events."""
    with Telemetry(events=True) as traced:
        slots, _floor = tms._try_tms(ii, c_delay, p_max)
    return slots, [(e.name, e.args) for e in traced.tracer.events
                   if e.name in ("place", "place_fail")]


def _check_pruned(ddg, resources, arch, config):
    """Run one traced search, place every candidate it pruned again, and
    return ``(scheduler, schedule, candidate events)``."""
    tms = ThreadSensitiveScheduler(ddg, resources, arch, config)
    with Telemetry(events=True) as traced:
        sched = tms.schedule()
    # each candidate's place/place_fail events, as the search emitted
    # them before its tms.candidate event
    emitted = {}
    events = []
    pending = []
    for e in traced.tracer.events:
        if e.name in ("place", "place_fail"):
            pending.append((e.name, e.args))
        elif e.name == "tms.candidate":
            events.append(e.args)
            emitted[(e.args["ii"], e.args["c_delay"])] = pending
            pending = []
    floors = {(e["ii"], e["c_delay"]): e["replay_floor"] for e in events
              if e["outcome"] == "reject"}
    for e in events:
        if e["outcome"] != "pruned":
            continue
        ii, c_delay, rejected = e["ii"], e["c_delay"], e["replays"]
        floor = floors[(ii, rejected)]
        assert rejected < c_delay and (floor is None or c_delay < floor)
        assert emitted[(ii, c_delay)] == []
        slots, placements = _placements(tms, ii, c_delay, config.p_max)
        assert slots is None, (ddg.name, config, ii, c_delay)
        assert placements == emitted[(ii, rejected)], \
            (ddg.name, config, ii, c_delay, rejected)
    return tms, sched, events


@pytest.mark.parametrize("speculation", [True, False])
@pytest.mark.parametrize("ccom", [1, 3, 7])
def test_every_pruned_candidate_fails(speculation, ccom):
    arch = replace(ARCH, reg_comm_latency=ccom)
    kernels = [(build_ddg(sl.loop, LAT), RES) for sl in DOACROSS_LOOPS
               if sl.loop.name != "lucas_fft"]
    kernels.append((motivating_ddg(), motivating_machine()))
    pruned = 0
    for ddg, resources in kernels:
        for p_max in ((0.0, 0.05, 1.0) if speculation else (0.05,)):
            config = SchedulerConfig(p_max=p_max, speculation=speculation)
            events = _check_pruned(ddg, resources, arch, config)[2]
            pruned += sum(e["outcome"] == "pruned" for e in events)
    assert pruned > 0


def test_lucas_fft_prunes_soundly_and_stops_at_the_budget():
    (loop,) = [sl.loop for sl in DOACROSS_LOOPS if sl.loop.name == "lucas_fft"]
    tms, sched, events = _check_pruned(build_ddg(loop, LAT), RES, ARCH,
                                       SchedulerConfig())
    # pruned candidates count toward the budget: the search still gives
    # up after 4,000 and falls back where it always has, having placed
    # few of them
    assert len(events) == MAX_CANDIDATES
    assert sum(e["outcome"] == "reject" for e in events) <= 150
    assert sched.meta["fallback"]
    assert (sched.ii, sched.meta["c_delay_threshold"]) == (62, 76)
    # the fallback is first-fit placement with seeds anchored high, which
    # is not plain SMS placement here
    for seed_high in (True, False):
        fallback = Schedule(tms.ddg, 62, tms.try_ii(62, seed_high=seed_high))
        assert (fallback.slots == sched.slots) is seed_high
