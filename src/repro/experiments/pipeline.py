"""Shared compile pipeline for all experiments.

``compile_loop_uncached`` runs the full flow the paper's compiler runs
per loop: IR -> DDG -> {SMS, TMS} schedule -> post-pass -> metrics, into
a :class:`CompiledLoop`.  Harnesses never call it directly: they batch
through :meth:`repro.session.Session.compile_many` (and
``simulate_many``), which call it on a cache miss, so repeated requests
for the same ``(loop, arch, resources, config)`` point — across tables,
figures and sweeps — reuse one compiled artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import ArchConfig, SchedulerConfig
from ..costmodel.exectime import achieved_c_delay
from ..errors import SchedulingError
from ..graph.ddg import DDG, build_ddg
from ..graph.mii import compute_mii
from ..graph.paths import longest_dependence_path
from ..graph.scc import strongly_connected_components
from ..ir.loop import Loop
from ..machine.latency import LatencyModel
from ..machine.resources import ResourceModel
from ..obs.telemetry import span
from ..sched.degrade import schedule_with_degradation
from ..sched.ims import IterativeModuloScheduler
from ..sched.maxlive import max_live
from ..sched.postpass import PipelinedLoop, run_postpass
from ..sched.schedule import Schedule
from ..sched.sms import LoopAnalysis, SwingModuloScheduler

__all__ = ["AlgResult", "CompiledLoop", "compile_loop_uncached"]


@dataclass(frozen=True)
class AlgResult:
    """One algorithm's schedule plus its compile-time metrics."""

    schedule: Schedule
    pipelined: PipelinedLoop
    ii: int
    max_live: int
    c_delay: float

    @classmethod
    def from_schedule(cls, schedule: Schedule, arch: ArchConfig,
                      *, synchronize_memory: bool = False) -> "AlgResult":
        pipelined = run_postpass(schedule, arch,
                                 synchronize_memory=synchronize_memory)
        return cls(
            schedule=schedule,
            pipelined=pipelined,
            ii=schedule.ii,
            max_live=max_live(schedule),
            c_delay=achieved_c_delay(schedule, arch,
                                     include_memory=synchronize_memory),
        )


@dataclass(frozen=True)
class CompiledLoop:
    """Full per-loop compile result."""

    name: str
    ddg: DDG
    n_inst: int
    mii: int
    ldp: int
    n_scc: int
    sms: AlgResult
    tms: AlgResult

    @property
    def ilp_gap_sms(self) -> float:
        """LDP - II: the paper's proxy for exploited ILP."""
        return self.ldp - self.sms.ii

    @property
    def tlp_gap_tms(self) -> float:
        """II - C_delay: the paper's proxy for exposed TLP."""
        return self.tms.ii - self.tms.c_delay


def _nontrivial_scc_count(ddg: DDG) -> int:
    count = 0
    for comp in strongly_connected_components(ddg):
        if len(comp) > 1:
            count += 1
        elif any(e.dst == comp[0] for e in ddg.succs(comp[0])):
            count += 1
    return count


def compile_loop_uncached(source: Loop | DDG, arch: ArchConfig,
                          resources: ResourceModel | None = None,
                          config: SchedulerConfig | None = None,
                          latency: LatencyModel | None = None) -> CompiledLoop:
    """The raw compile flow (no caching; the session calls this on a
    cache miss)."""
    resources = resources or ResourceModel.default(arch.issue_width)
    config = config or SchedulerConfig()
    if isinstance(source, DDG):
        ddg = source
    else:
        ddg = build_ddg(source, latency or LatencyModel.for_arch(arch))
    mii = compute_mii(ddg, resources)
    ldp = longest_dependence_path(ddg)
    # one analysis of the DDG for every scheduler below; the returned
    # artifact keeps none of it
    analysis = LoopAnalysis(ddg, resources, mii, ldp)
    with span("compile.sms", kernel=ddg.name):
        try:
            sms_sched = SwingModuloScheduler(
                ddg, resources, analysis).schedule()
        except SchedulingError:
            # SMS is restart-only and can wedge on pinched windows; GCC falls
            # back to list scheduling there — we fall back to the backtracking
            # modulo scheduler so suite runs never die on one loop.
            sms_sched = IterativeModuloScheduler(
                ddg, resources, analysis).schedule()
            sms_sched.meta["fallback_from"] = "SMS"
    # TMS routes through the degradation chain: a budget-exhausted or
    # failed (II, C_delay) search falls back TMS -> SMS -> IMS -> SEQ
    # (recording sched.degraded) instead of killing the whole suite run.
    with span("compile.tms", kernel=ddg.name):
        tms_sched = schedule_with_degradation(ddg, resources, arch, config,
                                              analysis)
    sync_mem = not config.speculation
    return CompiledLoop(
        name=ddg.name,
        ddg=ddg,
        n_inst=len(ddg),
        mii=mii,
        ldp=ldp,
        n_scc=_nontrivial_scc_count(ddg),
        sms=AlgResult.from_schedule(sms_sched, arch,
                                    synchronize_memory=sync_mem),
        tms=AlgResult.from_schedule(tms_sched, arch,
                                    synchronize_memory=sync_mem),
    )
