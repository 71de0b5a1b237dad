"""The :class:`Session`: compile-once-reuse-everywhere orchestration.

A session owns one :class:`~repro.session.cache.ArtifactCache` and hands
out compiled artifacts (:class:`~repro.experiments.pipeline.
CompiledLoop`) by content fingerprint, so every driver that routes
through it — ``repro.compile_and_simulate``, the table/figure harnesses,
the benches — shares one compilation of each ``(loop, arch, resources,
scheduler config)`` point.  It also memoises the per-kernel
:class:`~repro.spmt.channels.KernelTimingTemplate` so repeated
simulations of the same pipelined loop skip the template rebuild.

Most callers use the process-wide default session (:func:`get_session`):
its in-memory LRU holds 2,048 artifacts, and its disk tier turns on when
``REPRO_CACHE_DIR`` is set (making warm reruns of whole experiment
suites recompile nothing).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from ..config import ArchConfig, SchedulerConfig, SimConfig
from ..graph.ddg import DDG
from ..ir.loop import Loop
from ..machine.latency import LatencyModel
from ..machine.resources import ResourceModel
from ..obs import metrics
from ..obs.telemetry import span
from .cache import MISS, ArtifactCache, CacheStats
from .fingerprint import artifact_key
from .runner import ParallelRunner, TaskResult

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.pipeline import AlgResult, CompiledLoop
    from ..sched.postpass import PipelinedLoop
    from ..spmt.channels import KernelTimingTemplate
    from ..spmt.stats import SimStats

__all__ = ["Session", "SessionStats", "get_session", "reset_session",
           "set_session"]

#: Bound on the per-session KernelTimingTemplate memo.
_TEMPLATE_CACHE_SIZE = 512


@dataclass
class SessionStats:
    """Counters of one session, reported ``SimStats``-style."""

    #: compilations actually performed (cache misses that ran the pipeline)
    compiles: int = 0
    #: simulations dispatched through the session
    simulations: int = 0
    #: KernelTimingTemplate constructions / memo hits
    template_builds: int = 0
    template_hits: int = 0
    #: the artifact cache's counters (shared with ArtifactCache.stats)
    cache: CacheStats = field(default_factory=CacheStats)

    def summary(self) -> str:
        return (f"{self.compiles} compilations, {self.simulations} "
                f"simulations, templates {self.template_hits} reused / "
                f"{self.template_builds} built; cache: "
                f"{self.cache.summary()}")


def _resolve_cache_dir(cache_dir: str | os.PathLike | None) -> Path | None:
    if cache_dir is not None:
        return Path(cache_dir).expanduser()
    env = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return Path(env).expanduser() if env else None


class Session:
    """A reusable compile→simulate context.

    A call site that passes no ``arch`` / ``config`` gets
    ``ArchConfig.paper_default()`` / ``SchedulerConfig()``.

    Parameters
    ----------
    cache_dir:
        On-disk tier root; ``None`` consults ``REPRO_CACHE_DIR`` and
        stays memory-only when unset.
    jobs:
        Default parallelism for the ``*_many`` fan-out calls
        (default: ``REPRO_JOBS`` or sequential).
    """

    def __init__(self, *, cache_dir: str | os.PathLike | None = None,
                 jobs: int | None = None) -> None:
        self.jobs = jobs
        # the LRU holds ArtifactCache's default 2,048 artifacts
        self.cache = ArtifactCache(disk_dir=_resolve_cache_dir(cache_dir))
        self.stats = SessionStats(cache=self.cache.stats)
        # (id(pipelined), reg_comm_latency) -> (pipelined, template); the
        # pipelined object is pinned so its id cannot be recycled while
        # the entry lives.
        self._templates: OrderedDict[tuple[int, int], tuple[Any, Any]] = \
            OrderedDict()

    # -- default resolution -------------------------------------------------

    def _resolve(self, source: Loop | DDG, arch: ArchConfig | None,
                 resources: ResourceModel | None,
                 config: SchedulerConfig | None,
                 latency: LatencyModel | None):
        arch = arch or ArchConfig.paper_default()
        resources = resources or ResourceModel.default(arch.issue_width)
        config = config or SchedulerConfig()
        # latency only shapes the DDG build, so it is irrelevant (and
        # normalised away) when the caller hands us a prebuilt DDG.
        if isinstance(source, DDG):
            latency = None
        else:
            latency = latency or LatencyModel.for_arch(arch)
        return arch, resources, config, latency

    # -- compilation --------------------------------------------------------

    def compile(self, source: Loop | DDG, arch: ArchConfig | None = None,
                resources: ResourceModel | None = None,
                config: SchedulerConfig | None = None,
                latency: LatencyModel | None = None) -> "CompiledLoop":
        """Compile ``source`` with SMS and TMS, via the cache."""
        arch, resources, config, latency = self._resolve(
            source, arch, resources, config, latency)
        key = artifact_key(source, arch, resources, config, latency)
        cached = self.cache.get(key)
        if cached is not MISS:
            return cached
        with span("session.compile", kernel=getattr(source, "name", "")):
            compiled = _compile_uncached(
                (source, arch, resources, config, latency))
        self.stats.compiles += 1
        metrics.counter("session.compiles",
                        "compilations performed (cache misses)").inc()
        self.cache.put(key, compiled)
        return compiled

    def compile_many(self, sources: Sequence[Loop | DDG],
                     arch: ArchConfig | None = None,
                     resources: ResourceModel | None = None,
                     config: SchedulerConfig | None = None,
                     latency: LatencyModel | None = None, *,
                     jobs: int | None = None,
                     on_error: str = "raise"
                     ) -> list["CompiledLoop | None"]:
        """Compile a batch, fanning cache misses out across processes.

        Results come back in input order.  ``on_error="raise"``
        (default) re-raises the first failure; ``"skip"`` replaces
        failed entries with ``None`` so a sweep survives one
        pathological loop.
        """
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        sources = list(sources)
        out: list[Any] = [None] * len(sources)
        pending: dict[str, list[int]] = {}  # key -> input indices
        payloads: dict[str, tuple] = {}
        for i, source in enumerate(sources):
            r_arch, r_res, r_cfg, r_lat = self._resolve(
                source, arch, resources, config, latency)
            key = artifact_key(source, r_arch, r_res, r_cfg, r_lat)
            cached = self.cache.get(key)
            if cached is not MISS:
                out[i] = cached
            else:
                pending.setdefault(key, []).append(i)
                payloads.setdefault(
                    key, (source, r_arch, r_res, r_cfg, r_lat))
        if pending:
            keys = list(pending)
            runner = ParallelRunner(self.jobs if jobs is None else jobs)
            with span("session.compile_many", tasks=len(keys)):
                results = runner.map(_compile_uncached,
                                     [payloads[k] for k in keys])
            for key, result in zip(keys, results):
                if result.ok:
                    self.stats.compiles += 1
                    metrics.counter(
                        "session.compiles",
                        "compilations performed (cache misses)").inc()
                    self.cache.put(key, result.value)
                    for i in pending[key]:
                        out[i] = result.value
                elif on_error == "raise":
                    result.unwrap()
                # on_error == "skip": leave the None placeholders
        return out

    # -- simulation ---------------------------------------------------------

    def simulate(self, target: "AlgResult | PipelinedLoop",
                 arch: ArchConfig | None = None, iterations: int = 500,
                 seed: int = 0xACE5, *,
                 sim: SimConfig | None = None) -> "SimStats":
        """Run one compiled kernel on the SpMT machine, reusing its
        timing template across calls."""
        from ..spmt.sim import SpMTSimulator

        pipelined = _as_pipelined(target)
        arch = arch or ArchConfig.paper_default()
        sim = sim or SimConfig(iterations=iterations, seed=seed)
        template = self._template_for(pipelined, arch)
        self.stats.simulations += 1
        metrics.counter("session.simulations",
                        "simulations dispatched through sessions").inc()
        with span("session.simulate", kernel=pipelined.schedule.ddg.name):
            return SpMTSimulator(pipelined, arch, sim, template=template).run()

    def simulate_many(self, targets: Sequence["AlgResult | PipelinedLoop"],
                      arch: ArchConfig | None = None, iterations: int = 500,
                      seed: int = 0xACE5, *,
                      sim: SimConfig | None = None,
                      jobs: int | None = None,
                      on_error: str = "raise"
                      ) -> list["SimStats | None"]:
        """Simulate a batch of kernels; parallel when ``jobs > 1`` and
        the batch has more than one kernel, deterministic result order
        always.  ``sim`` overrides ``iterations``/``seed`` wholesale
        (same contract as :meth:`simulate`) — e.g. ``SimConfig(...,
        exact=True)`` runs the whole batch through the reference event
        loop, worker processes included."""
        if on_error not in ("raise", "skip"):
            raise ValueError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}")
        arch = arch or ArchConfig.paper_default()
        pipelined = [_as_pipelined(t) for t in targets]
        runner = ParallelRunner(self.jobs if jobs is None else jobs)
        sim = sim or SimConfig(iterations=iterations, seed=seed)
        payloads = [(p, arch, sim) for p in pipelined]
        with span("session.simulate_many", tasks=len(payloads)):
            if runner.workers_for(len(payloads)) <= 1:
                # In-process batch: same runner bookkeeping and
                # instruments as the fan-out (so --jobs 1 and --jobs N
                # telemetry agree), but through a closure that keeps the
                # template memo warm and honours on_error="skip" instead
                # of raising mid-batch.
                def _inline(payload: tuple) -> "SimStats":
                    from ..spmt.sim import SpMTSimulator
                    p, a, s = payload
                    template = self._template_for(p, a)
                    return SpMTSimulator(p, a, s, template=template).run()

                results = runner.map(_inline, payloads)
            else:
                results = runner.map(_simulate_task, payloads)
        ok = sum(1 for r in results if r.ok)
        self.stats.simulations += ok
        metrics.counter("session.simulations",
                        "simulations dispatched through sessions").inc(ok)
        if on_error == "raise":
            for r in results:
                if not r.ok:
                    r.unwrap()
        return [r.value if r.ok else None for r in results]

    def _template_for(self, pipelined: "PipelinedLoop",
                      arch: ArchConfig) -> "KernelTimingTemplate":
        from ..spmt.channels import KernelTimingTemplate

        key = (id(pipelined), arch.reg_comm_latency)
        entry = self._templates.get(key)
        if entry is not None and entry[0] is pipelined:
            self._templates.move_to_end(key)
            self.stats.template_hits += 1
            return entry[1]
        template = KernelTimingTemplate(pipelined, arch.reg_comm_latency)
        self.stats.template_builds += 1
        self._templates[key] = (pipelined, template)
        self._templates.move_to_end(key)
        while len(self._templates) > _TEMPLATE_CACHE_SIZE:
            self._templates.popitem(last=False)
        return template

    # -- reporting ----------------------------------------------------------

    def report(self) -> str:
        """One-line session summary (compiles, simulations, cache)."""
        return f"session: {self.stats.summary()}"


# -- module-level workers (picklable; run in ParallelRunner children) -------

def _compile_uncached(payload: tuple) -> "CompiledLoop":
    source, arch, resources, config, latency = payload
    from ..experiments.pipeline import compile_loop_uncached
    return compile_loop_uncached(source, arch, resources, config, latency)


def _simulate_task(payload: tuple) -> "SimStats":
    pipelined, arch, sim = payload
    from ..spmt.sim import simulate
    return simulate(pipelined, arch, sim)


def _as_pipelined(target: Any) -> "PipelinedLoop":
    pipelined = getattr(target, "pipelined", target)
    if not hasattr(pipelined, "schedule"):
        raise TypeError(
            f"expected an AlgResult or PipelinedLoop, got {type(target).__name__}")
    return pipelined


# -- the process-wide default session ---------------------------------------

_DEFAULT: Session | None = None


def get_session() -> Session:
    """The process-wide default session (created lazily; its disk tier
    and its parallelism come from ``REPRO_CACHE_DIR`` and
    ``REPRO_JOBS``)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Session()
    return _DEFAULT


def set_session(session: Session | None) -> Session | None:
    """Replace the default session; returns the previous one."""
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, session
    return previous


def reset_session() -> None:
    """Drop the default session (a fresh one is created on next use)."""
    set_session(None)
