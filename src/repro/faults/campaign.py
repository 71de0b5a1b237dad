"""Seeded chaos campaigns over the kernel suites.

``run_chaos`` compiles a kernel suite (through the process session, so
warm caches make reruns cheap), then runs each kernel's TMS schedule
under a battery of fault scenarios — squash storms, violation cascades,
operand-network jitter and loss, flaky spawns, core stall bursts — with
the trace sanitizer checking every run's event stream against the SpMT
model invariants.  The output is a versioned
:class:`~repro.faults.report.ChaosReport`.

Determinism: every run's fault draws are keyed by
``(campaign seed, kernel, scenario)`` via :func:`derive_seed`, so a
campaign is byte-identical across reruns of the same seed regardless of
which kernels compile, what order scenarios execute in, or how often a
thread restarts.
"""

from __future__ import annotations

import zlib
from typing import Sequence

from ..config import ArchConfig, SchedulerConfig, SimConfig
from ..machine.resources import ResourceModel
from ..obs import telemetry
from ..obs.telemetry import Telemetry
from ..spmt.sim import SpMTSimulator
from .injector import FaultInjectingSimulator
from .plan import FaultPlan, FaultSpec
from .report import ChaosReport, ChaosRow
from .sanitizer import sanitize_events

__all__ = ["SCENARIOS", "build_plan", "derive_seed", "run_chaos"]

#: Campaign scenarios, in execution order.  "baseline" is the clean run
#: the others' slowdowns are measured against.
SCENARIOS = ("baseline", "squash-storm", "cascade", "jitter", "loss",
             "spawn-flaky", "stall-burst", "combined")

#: default campaign seed
DEFAULT_SEED = 0xC4A05


def build_plan(scenario: str, seed: int) -> FaultPlan | None:
    """The fault plan for ``scenario`` (None for the clean baseline)."""
    if scenario == "baseline":
        return None
    if scenario == "squash-storm":
        specs = (FaultSpec("violation", probability=0.35, every=2,
                           detect_frac=0.6),)
    elif scenario == "cascade":
        # late detection maximises the more-speculative squash radius;
        # max_per_thread=2 forces back-to-back violations on hot threads.
        specs = (FaultSpec("violation", probability=0.8, every=5,
                           detect_frac=0.9, max_per_thread=2),)
    elif scenario == "jitter":
        specs = (FaultSpec("comm_jitter", probability=0.5, magnitude=4.0),)
    elif scenario == "loss":
        # a lost operand-network packet only arrives after a retransmit
        specs = (FaultSpec("comm_loss", probability=0.1, magnitude=30.0),)
    elif scenario == "spawn-flaky":
        specs = (FaultSpec("spawn_failure", probability=0.2, magnitude=6.0),)
    elif scenario == "stall-burst":
        specs = (FaultSpec("stall_burst", every=7, magnitude=25.0),)
    elif scenario == "combined":
        specs = (
            FaultSpec("violation", probability=0.15, every=3,
                      detect_frac=0.7),
            FaultSpec("comm_jitter", probability=0.25, magnitude=3.0),
            FaultSpec("spawn_failure", probability=0.1, magnitude=5.0),
        )
    else:
        raise ValueError(
            f"unknown chaos scenario {scenario!r}; expected one of "
            f"{SCENARIOS}")
    return FaultPlan(name=scenario, seed=seed, specs=specs)


def derive_seed(base: int, kernel: str, scenario: str) -> int:
    """A stable per-(kernel, scenario) seed, independent of run order."""
    return (base ^ zlib.crc32(f"{kernel}:{scenario}".encode())) & 0x7FFFFFFF


def _traced_run(simulator: SpMTSimulator):
    """Run ``simulator`` with events on, in a telemetry context of its
    own, returning ``(stats, events)`` with this run's events alone.
    The run's metrics and spans are merged into the surrounding context,
    and its events only when that context records events (``--trace``),
    so a plain campaign keeps no run's events once they are checked."""
    outer = telemetry.current()
    with Telemetry(**outer.switches() | {"events": True}) as run:
        stats = simulator.run()
    events = run.tracer.events
    if not outer.tracer.enabled:
        run.tracer.events = []
    outer.merge(run.snapshot())
    return stats, events


def run_chaos(arch: ArchConfig | None = None,
              config: SchedulerConfig | None = None, *,
              suites: Sequence[str] = ("table3",),
              scenarios: Sequence[str] = SCENARIOS,
              max_loops: int | None = None,
              iterations: int = 300,
              seed: int = DEFAULT_SEED,
              jobs: int | None = None,
              session=None) -> ChaosReport:
    """Run a seeded fault campaign over the requested kernel suites.

    Every kernel gets a clean baseline simulation (the slowdown
    reference; reported as a row only when ``"baseline"`` is among
    ``scenarios``) plus one faulted run per remaining scenario, each
    sanitized against the trace invariants.  Kernels whose compilation
    fails are skipped (soft-fail, like the suite drivers).
    """
    from ..experiments.validate import suite_loops
    from ..session import get_session
    arch = arch or ArchConfig.paper_default()
    config = config or SchedulerConfig()
    resources = ResourceModel.default(arch.issue_width)
    session = session or get_session()

    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(
                f"unknown chaos scenario {s!r}; expected one of {SCENARIOS}")

    pairs = suite_loops(suites, max_loops)
    if max_loops is not None:
        # max_loops also caps the campaign's total kernel count (table3
        # has no per-benchmark generator for suite_loops to cap).
        pairs = pairs[:max_loops]
    compiled = session.compile_many(
        [loop for _b, loop in pairs], arch, resources, config,
        jobs=jobs, on_error="skip")

    rows: list[ChaosRow] = []
    for (benchmark, _loop), comp in zip(pairs, compiled):
        if comp is None:
            continue
        kernel = comp.name
        pipelined = comp.tms.pipelined
        # which rung of the degradation chain produced the schedule the
        # campaign actually stresses ("tms" unless the loop degraded)
        policy = comp.tms.schedule.meta.get("policy", "tms")

        # clean baseline: the slowdown reference for this kernel
        base_seed = derive_seed(seed, kernel, "baseline")
        base_sim = SpMTSimulator(
            pipelined, arch, SimConfig(iterations=iterations, seed=base_seed))
        base_stats, base_events = _traced_run(base_sim)
        base_findings = sanitize_events(base_events, arch, stats=base_stats)

        for scenario in scenarios:
            if scenario == "baseline":
                stats, findings, injected, run_seed = (
                    base_stats, base_findings, {}, base_seed)
            else:
                run_seed = derive_seed(seed, kernel, scenario)
                plan = build_plan(scenario, run_seed)
                sim = FaultInjectingSimulator(
                    pipelined, arch,
                    SimConfig(iterations=iterations, seed=run_seed),
                    plan=plan)
                stats, events = _traced_run(sim)
                findings = sanitize_events(events, arch, stats=stats)
                injected = dict(sim.injected)
            slowdown = (stats.total_cycles / base_stats.total_cycles
                        if base_stats.total_cycles else 1.0)
            rows.append(ChaosRow(
                kernel=kernel,
                benchmark=benchmark,
                scenario=scenario,
                plan="" if scenario == "baseline" else scenario,
                policy=policy,
                seed=run_seed,
                iterations=iterations,
                total_cycles=stats.total_cycles,
                misspeculations=stats.misspeculations,
                squashed_threads=stats.squashed_threads,
                wasted_execution_cycles=stats.wasted_execution_cycles,
                sync_stall_cycles=stats.sync_stall_cycles,
                injected=injected,
                # seq-free rendering keeps reports byte-identical across
                # reruns even when findings exist
                findings=tuple(f"{f.invariant}: {f.message}"
                               for f in findings),
                slowdown=slowdown,
            ))
    return ChaosReport(rows=tuple(rows), seed=seed, ncore=arch.ncore,
                       iterations=iterations, scenarios=tuple(scenarios))
