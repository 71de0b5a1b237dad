"""The TMS search only prunes (II, C_delay) candidates that replay a
failed one.

A failed candidate's :attr:`TMSPolicy.replay_floor` bounds the
thresholds at which its placement passes make the same slot choice at
every node; the search marks those candidates ``pruned`` without placing
them.  Here every pruned candidate of a traced search is placed anyway
and must fail with the same ``place`` and ``place_fail`` events, in the
same order, as the rejected candidate it ``replays`` — on the Table-3
DOACROSS kernels and the motivating kernel, under speculation on and
off, ``C_reg_com`` 1, 3 and 7 and ``P_max`` 0, 0.05 and 1 (with
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
from repro.sched import ThreadSensitiveScheduler
from repro.workloads import DOACROSS_LOOPS, motivating_ddg, motivating_machine

ARCH = ArchConfig.paper_default()
RES = ResourceModel.default(ARCH.issue_width)
LAT = LatencyModel.for_arch(ARCH)


def _placements(tms, ii, c_delay, p_max):
    """``(slots, events)``: one candidate placed again, with its
    ``place`` and ``place_fail`` events."""
    with Telemetry(events=True) as traced:
        slots, _floor = tms._try_tms(ii, c_delay, p_max)
    return slots, [(e.name, e.args) for e in traced.tracer.events
                   if e.name in ("place", "place_fail")]


def _check_pruned(ddg, resources, arch, config):
    """Run one traced search, place every candidate it pruned and the
    rejected one it replays, and return ``(schedule, candidate
    events)``."""
    tms = ThreadSensitiveScheduler(ddg, resources, arch, config)
    with Telemetry(events=True) as traced:
        sched = tms.schedule()
    events = [e.args for e in traced.tracer.events
              if e.name == "tms.candidate"]
    floors = {(e["ii"], e["c_delay"]): e["replay_floor"] for e in events
              if e["outcome"] == "reject"}
    replayed = {}
    for e in events:
        if e["outcome"] != "pruned":
            continue
        ii, c_delay, rejected = e["ii"], e["c_delay"], e["replays"]
        floor = floors[(ii, rejected)]
        assert rejected < c_delay and (floor is None or c_delay < floor)
        if (ii, rejected) not in replayed:
            slots, replayed[(ii, rejected)] = _placements(
                tms, ii, rejected, config.p_max)
            assert slots is None
        slots, placements = _placements(tms, ii, c_delay, config.p_max)
        assert slots is None, (ddg.name, config, ii, c_delay)
        assert placements == replayed[(ii, rejected)], \
            (ddg.name, config, ii, c_delay, rejected)
    return sched, events


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
            events = _check_pruned(ddg, resources, arch, config)[1]
            pruned += sum(e["outcome"] == "pruned" for e in events)
    assert pruned > 0


def test_lucas_fft_prunes_soundly_and_stops_at_the_budget():
    (loop,) = [sl.loop for sl in DOACROSS_LOOPS if sl.loop.name == "lucas_fft"]
    sched, events = _check_pruned(build_ddg(loop, LAT), RES, ARCH,
                                  SchedulerConfig())
    # pruned candidates count toward the budget: the search still gives
    # up after 4,000 and falls back where it always has, having placed
    # few of them
    assert len(events) == SchedulerConfig().max_candidates
    assert sum(e["outcome"] == "reject" for e in events) <= 150
    assert sched.meta["fallback"]
    assert (sched.ii, sched.meta["c_delay_threshold"]) == (62, 76)
