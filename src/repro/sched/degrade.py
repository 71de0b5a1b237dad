"""Graceful scheduler degradation: TMS -> SMS -> IMS -> sequential.

The experiment drivers must never die (or hang) because one pathological
loop defeats the TMS ``(II, C_delay)`` search.  This module provides the
degradation chain the pipeline routes through:

1. **TMS** — the thread-sensitive search, optionally bounded by the
   ``SchedulerConfig.max_schedule_seconds`` wall-clock watchdog;
2. **SMS** — plain swing modulo scheduling (no thread-sensitivity);
3. **IMS** — the backtracking iterative modulo scheduler (survives the
   pinched windows that wedge SMS's restart-only discipline);
4. **sequential** — the loop body list-scheduled once per iteration with
   ``II = span``: no inter-iteration overlap, trivially valid, always
   succeeds.

``SchedulerConfig.policy`` names the chain's first rung (one of
:data:`repro.config.KNOWN_POLICIES`), so the same driver runs the
baseline schedulers by config alone — the ``--policy`` CLI flag rides on
this.  Every schedule the chain
returns carries ``meta["policy"]`` naming the rung that actually
produced it.

Each step down the chain publishes the ``sched.degraded`` metric, emits a
``sched.degraded`` trace event, and stamps the schedule's ``meta`` with
``degraded_from``/``degraded_to`` so reports can surface the loss of
fidelity instead of silently absorbing it.
"""

from __future__ import annotations

from ..config import KNOWN_POLICIES, ArchConfig, SchedulerConfig
from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..machine.resources import ResourceModel
from ..obs import metrics
from ..obs.events import get_tracer
from ..obs.spans import span
from .ims import IterativeModuloScheduler
from .listsched import list_schedule
from .schedule import Schedule, validate_schedule
from .sms import SwingModuloScheduler
from .tms import ThreadSensitiveScheduler

__all__ = ["schedule_sequential_fallback", "schedule_with_degradation",
           "schedule_with_policy"]

#: the degradation ladder, most to least capable.
_LADDER: tuple[str, ...] = ("tms", "sms", "ims", "seq")


def schedule_sequential_fallback(ddg: DDG,
                                 resources: ResourceModel) -> Schedule:
    """A modulo schedule with no inter-iteration overlap (``II = span``).

    List-schedules the distance-0 sub-DAG and widens II to the iteration
    span, so every loop-carried dependence is satisfied by construction
    and the per-row resource usage equals the (already valid) acyclic
    placement.  The last rung of the degradation ladder: slow, but it
    cannot fail on any well-formed DDG.
    """
    listed = list_schedule(ddg, resources)
    ii = max(listed.span, 1)
    sched = Schedule(ddg, ii, dict(listed.times), algorithm="SEQ",
                     meta={"span": listed.span, "delta": listed.delta})
    validate_schedule(sched, resources)
    return sched


def _rung_builders(ddg: DDG, resources: ResourceModel, arch: ArchConfig,
                   config: SchedulerConfig):
    return {
        "tms": lambda: ThreadSensitiveScheduler(
            ddg, resources, arch, config).schedule(),
        "sms": lambda: SwingModuloScheduler(
            ddg, resources, config).schedule(),
        "ims": lambda: IterativeModuloScheduler(
            ddg, resources, config).schedule(),
        "seq": lambda: schedule_sequential_fallback(ddg, resources),
    }


def schedule_with_policy(ddg: DDG, resources: ResourceModel,
                         arch: ArchConfig, policy: str | None = None,
                         config: SchedulerConfig | None = None) -> Schedule:
    """Schedule with exactly the named policy — no degradation.

    ``policy`` defaults to ``config.policy``.  Raises
    :class:`SchedulingError` if the named scheduler fails (use
    :func:`schedule_with_degradation` for a never-fail chain).  The
    result carries ``meta["policy"]``.
    """
    config = config or SchedulerConfig()
    name = (policy if policy is not None else config.policy).lower()
    if name not in KNOWN_POLICIES:
        raise SchedulingError(
            f"unknown scheduling policy {name!r}; known: {KNOWN_POLICIES}")
    with span("sched.policy", kernel=ddg.name, policy=name):
        sched = _rung_builders(ddg, resources, arch, config)[name]()
    sched.meta["policy"] = name
    return sched


def schedule_with_degradation(ddg: DDG, resources: ResourceModel,
                              arch: ArchConfig,
                              config: SchedulerConfig | None = None
                              ) -> Schedule:
    """``config.policy`` with graceful degradation; never hangs, never
    raises :class:`SchedulingError` for a well-formed DDG.

    Returns the first schedule the chain produces, with
    ``meta["policy"]`` naming the rung that succeeded.  A degraded result
    additionally carries ``meta["degraded_from"]`` (the requested rung,
    e.g. ``"TMS"``) and ``meta["degraded_to"]`` naming the rung that
    succeeded.
    """
    config = config or SchedulerConfig()
    first = config.policy  # validated against KNOWN_POLICIES on construction
    ladder = _LADDER[_LADDER.index(first):]
    builders = _rung_builders(ddg, resources, arch, config)
    failures: list[str] = []
    for name in ladder:
        try:
            with span("sched.rung", kernel=ddg.name, policy=name) as sp:
                sched = builders[name]()
                if sp is not None:
                    sp.attrs["outcome"] = "ok"
        except SchedulingError as exc:
            failures.append(f"{name.upper()}: {exc}")
            continue
        sched.meta["policy"] = name
        if failures:
            sched.meta["degraded_from"] = first.upper()
            sched.meta["degraded_to"] = name.upper()
            sched.meta["degradation_reason"] = failures[0]
            metrics.counter(
                "sched.degraded",
                "schedules produced by a degradation fallback").inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.emit("sched", "sched.degraded", loop=ddg.name,
                            degraded_from=first.upper(),
                            degraded_to=name.upper(), reason=failures[0])
        return sched
    raise SchedulingError(
        f"every degradation rung failed on {ddg.name!r}: "
        + "; ".join(failures))
