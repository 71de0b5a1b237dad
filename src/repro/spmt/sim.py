"""The SpMT multicore simulator's thread-level event loop.

Thread lifecycle (paper Section 3):

* thread ``j`` executes kernel iteration ``j`` on core ``j % ncore``;
* its first instruction is the spawn of thread ``j+1``, so
  ``start(j+1) >= start(j) + C_spn`` — spawns are sequential and never
  overlap;
* the thread may also wait for its core: the core is free once the thread
  ``ncore`` iterations earlier has committed (the double-buffered write
  buffer drains in the background, covered by ``C_ci``);
* RECVs stall until the producing thread's SEND value crosses the ring
  (:mod:`repro.spmt.channels`);
* when a manifested speculated dependence is violated, the consuming
  thread is squashed (``C_inv``) and re-executed on the same core; its
  synchronised inputs have typically already arrived, so the re-execution
  stalls less — the cost model's ``max(0, C_delay - C_spn)`` re-execution
  gain emerges on its own;
* threads commit in order behind the head thread, each paying ``C_ci``.

Approximations vs. the paper's SimpleScalar machine are per-thread (the
out-of-order dataflow stall model of :mod:`repro.spmt.channels`, the
more-speculative-squash count estimate) and documented where they live;
they do not affect the ordering or magnitude relationships the experiments
measure.

Two execution strategies produce byte-identical :class:`SimStats`:

* the **reference event loop** resolves every thread with the scalar
  resolver — forced by ``SimConfig.exact``;
* the default path memoises that resolver per run on the relative
  arrival vector and keys every thread boundary on the relative thread
  state (:class:`~repro.spmt.fastpath.SteadyStateDetector`): it skips
  analytically through proven cycles of that state, and replays in one
  step the chain of threads already committed from the same states
  with the same realisation draws.  The event loop applies a skip and a
  chain alike, and runs every other thread itself.  Tracing, cache-miss
  draws and fault hooks all disengage the parts of the fast path they
  would perturb (see docs/simulator.md).
"""

from __future__ import annotations

import numpy as np

from ..config import ArchConfig, SimConfig
from ..errors import SimulationError
from ..machine.cache import CacheModel
from ..obs import metrics, telemetry
from ..sched.postpass import PipelinedLoop
from .channels import KernelTimingTemplate, ThreadTiming
from .fastpath import SteadyStateDetector
from .stats import SimStats
from .violations import RealisationTable, detect_violation

__all__ = ["MAX_EVENTS", "SpMTSimulator", "simulate"]

#: simulator events (thread executions, restarts included) a run may
#: take before it is declared non-terminating.
MAX_EVENTS = 50_000_000

#: restart attempts per thread before declaring the simulation wedged.
_MAX_RESTARTS = 64

#: distinct relative-arrival vectors memoised per run (steady and
#: violation-periodic regimes cycle through a handful; the cap only
#: guards pathological non-repeating kernels).
_RESOLVE_CACHE_MAX = 4096


class SpMTSimulator:
    """Simulates one pipelined loop on the SpMT machine."""

    def __init__(self, pipelined: PipelinedLoop, arch: ArchConfig,
                 sim: SimConfig | None = None, *,
                 template: KernelTimingTemplate | None = None) -> None:
        self.pipelined = pipelined
        self.arch = arch
        self.sim = sim or SimConfig()
        # a session may hand us its memoised template; it is derived
        # solely from (pipelined, reg_comm_latency), so reuse is exact.
        self.template = template if template is not None else \
            KernelTimingTemplate(pipelined, arch.reg_comm_latency)
        # cache-perturbation state (miss draws + load indices) is derived
        # lazily inside the run so a reused simulator never replays a
        # previous run's rng position or a stale template's load set.
        self._cache: CacheModel | None = None
        self._load_indices: list[int] | None = None
        #: resolutions at start 0, keyed by relative arrivals (reset per run)
        self._resolved: dict[tuple[float, ...], ThreadTiming] = {}

    def run(self) -> SimStats:
        """Simulate all iterations; one ``sim.run`` span per call, with
        a ``sim.threads`` detail span around the per-thread event loop
        when ``--trace``-level spans are on."""
        spans = telemetry.current().spans
        if not spans.enabled:
            return self._run()
        sched = self.pipelined.schedule
        with spans.span("sim.run", kernel=sched.ddg.name,
                        algorithm=sched.algorithm,
                        iterations=self.sim.iterations,
                        ncore=self.arch.ncore):
            with spans.span("sim.threads", detail=True,
                            threads=self.sim.iterations):
                return self._run()

    def _run(self) -> SimStats:
        arch = self.arch
        n = self.sim.iterations
        template = self.template
        realisations = RealisationTable(template, self.sim.seed, n)
        # re-derive perturbation state per run: a reused simulator must
        # not see a previous run's rng position
        self._cache = None
        self._load_indices = None
        self._resolved = {}

        stats = SimStats(iterations=n, ncore=arch.ncore,
                         reg_comm_latency=arch.reg_comm_latency)
        timings: dict[int, ThreadTiming] = {}
        core_free = [0.0] * arch.ncore
        prev_start = -float(arch.spawn_overhead)
        prev_commit = 0.0
        events = 0

        tracer = telemetry.current().tracer

        # kernel distances are immutable for the run, so the retention
        # horizon is a loop constant (previously re-scanned every
        # iteration)
        max_hops = max(
            max((ch.hops for ch in template.channels), default=1),
            max((k for (_x, _y, k, _p) in template.speculated), default=1),
        )
        retention = max_hops + arch.ncore + 1

        # skips and replay chains need every thread to be deterministic and
        # unobserved: no tracer, no cache draws, no fault hooks of any kind
        cls = type(self)
        detector = None
        if not self.sim.exact and not tracer.enabled \
                and arch.l1_miss_rate <= 0.0 \
                and cls._perturb_arrivals is SpMTSimulator._perturb_arrivals \
                and cls._start_delay is SpMTSimulator._start_delay \
                and cls._inject_violation is SpMTSimulator._inject_violation:
            candidate = SteadyStateDetector(template, arch, n)
            if candidate.viable:
                detector = candidate
        fastforwards = 0
        fastforwarded_threads = 0
        replayed_threads = 0

        j = 0
        while j < n:
            if detector is not None:
                ff = detector.attempt(j, realisations)
                if ff is not None:
                    # each skipped thread stands for 1 + restarts events
                    events += ff.skipped + ff.misspeculations
                    if events > MAX_EVENTS:
                        raise SimulationError(
                            f"simulation exceeded {MAX_EVENTS} events")
                    stats.sync_stall_cycles += ff.stall_cycles
                    stats.misspeculations += ff.misspeculations
                    stats.squashed_threads += ff.squashed_threads
                    stats.wasted_execution_cycles += ff.wasted_cycles
                    stats.invalidation_cycles += ff.invalidation_cycles
                    timings = ff.timings
                    prev_start = ff.prev_start
                    prev_commit = ff.prev_commit
                    core_free = ff.core_free
                    if ff.replayed:
                        replayed_threads += ff.skipped
                    else:
                        fastforwards += 1
                        fastforwarded_threads += ff.skipped
                    j = ff.target
                    continue
            core = j % arch.ncore
            restarts = 0
            thread_wasted = 0.0
            thread_squashed = 0
            stall_log: list[tuple[int, float, float]] | None = None
            start = max(prev_start + arch.spawn_overhead, core_free[core])
            start += self._start_delay(j, core)
            # execution attempts until one commits
            while True:
                events += 1
                if events > MAX_EVENTS:
                    raise SimulationError(
                        f"simulation exceeded {MAX_EVENTS} events")
                if tracer.enabled:
                    stall_log = []
                timing = self._execute(j, start, timings,
                                       stall_log=stall_log)
                timings[j] = timing
                violation = detect_violation(
                    template, timings, realisations.mask(j), j)
                injected = False
                if violation is None:
                    forced = self._inject_violation(j, core, restarts, timing)
                    if forced is not None:
                        violation = (-1, max(forced, start))
                        injected = True
                if violation is None:
                    break
                restarts += 1
                if restarts > _MAX_RESTARTS:
                    raise SimulationError(
                        f"thread {j} restarted more than {_MAX_RESTARTS} "
                        f"times; violation cannot clear")
                _idx, detected = violation
                stats.misspeculations += 1
                thread_wasted += max(0.0, detected - start)
                stats.invalidation_cycles += arch.invalidation_overhead
                # the violated thread plus all more speculative started
                # threads are squashed; more speculative threads have not
                # been computed yet (we process in order), so estimate how
                # many had started by detection time from the spawn chain —
                # capped by the threads that exist at all (n - 1 - j): a
                # violation on the most speculative thread squashes only
                # itself.  Thread j+i has started by detection time iff
                # i * C_spn <= gap; a free spawn means the whole window was
                # already running.
                gap = max(0.0, detected - start)
                spawn = float(arch.spawn_overhead)
                chain = int(gap // spawn) if spawn > 0.0 else arch.ncore - 1
                started_after = min(arch.ncore - 1, n - 1 - j, chain)
                thread_squashed += 1 + started_after
                # those threads' partial executions are wasted too: thread
                # start+i spawned ~i*C_spn after this one, so it ran for
                # detected - (start + i*C_spn) cycles before the squash.
                for i in range(1, started_after + 1):
                    thread_wasted += max(
                        0.0, detected - (start + i * arch.spawn_overhead))
                if tracer.enabled:
                    if injected:
                        tracer.emit("sim", "violation", ts=detected,
                                    thread=j, attempt=restarts, tid=core,
                                    injected=True)
                    else:
                        tracer.emit("sim", "violation", ts=detected,
                                    thread=j, attempt=restarts, tid=core)
                    tracer.emit("sim", "squash", ts=detected,
                                dur=float(arch.invalidation_overhead),
                                thread=j, squashed=1 + started_after,
                                tid=core)
                # re-execute on the same core after invalidation
                start = detected + arch.invalidation_overhead
            # committed execution: account its stalls and squash costs
            stats.sync_stall_cycles += timings[j].total_stall
            stats.wasted_execution_cycles += thread_wasted
            stats.squashed_threads += thread_squashed
            # in-order commit behind the head thread
            commit = max(timings[j].finish, prev_commit) + arch.commit_overhead
            core_free[core] = commit
            prev_commit = commit
            prev_start = timings[j].start
            if tracer.enabled:
                self._emit_thread_events(tracer, j, core, timings[j],
                                         commit, restarts, stall_log)
            if detector is not None:
                detector.observe(j, timings[j], commit, restarts,
                                 thread_wasted, thread_squashed,
                                 realisations)
            # bound memory: drop state no longer reachable by any kernel
            # distance (communication hops or speculated distances)
            horizon = j - retention
            if horizon in timings:
                del timings[horizon]
            j += 1

        stats.total_cycles = prev_commit
        stats.send_recv_pairs = self.pipelined.comm.pairs_per_iteration * n
        stats.spawn_cycles = arch.spawn_overhead * n
        stats.commit_cycles = arch.commit_overhead * n
        if fastforwards:
            metrics.counter(
                "sim.fastforwards",
                "steady-state fast-forwards taken").inc(fastforwards)
            metrics.counter(
                "sim.fastforward_threads",
                "threads skipped analytically").inc(fastforwarded_threads)
        if replayed_threads:
            metrics.counter(
                "sim.replayed_threads",
                "threads replayed from a memoised record").inc(
                replayed_threads)
        metrics.counter("sim.runs", "simulations completed").inc()
        metrics.counter("sim.threads", "threads committed").inc(n)
        metrics.counter("sim.violations", "misspeculations detected").inc(
            stats.misspeculations)
        metrics.counter("sim.squashed_threads", "threads squashed").inc(
            stats.squashed_threads)
        metrics.histogram(
            "sim.total_cycles", "total cycles per run").observe(
            stats.total_cycles)
        metrics.histogram(
            "sim.stall_cycles", "sync stall cycles per run").observe(
            stats.sync_stall_cycles)
        return stats

    # -- fault-injection hooks --------------------------------------------------
    #
    # No-op in the production simulator; repro.faults.injector overrides
    # them to perturb execution deterministically (spawn failures and core
    # stall bursts, operand-network jitter/loss, forced extra violations).
    # The hooks see only committed-model state, so the base event loop's
    # squash/recovery accounting — and every trace invariant — applies to
    # faulted runs unchanged.

    def _start_delay(self, j: int, core: int) -> float:
        """Extra cycles before thread ``j`` may start on ``core``."""
        return 0.0

    def _perturb_arrivals(self, j: int, arrivals: list[float]) -> list[float]:
        """Adjust per-channel value-arrival times for thread ``j``."""
        return arrivals

    def _inject_violation(self, j: int, core: int, attempt: int,
                          timing: ThreadTiming) -> float | None:
        """Detection time of a forced violation for thread ``j`` on this
        attempt, or ``None``.  Only consulted when no organic violation
        fired."""
        return None

    # -- event emission ---------------------------------------------------------

    def _emit_thread_events(self, tracer, j: int, core: int,
                            timing: ThreadTiming, commit: float,
                            restarts: int,
                            stall_log: list[tuple[int, float, float]] | None
                            ) -> None:
        """Per-thread trace events for the *committed* execution: the
        spawn of the successor, the execution span, each stalled RECV,
        every produced SEND, and the in-order commit."""
        arch = self.arch
        template = self.template
        start = timing.start
        tracer.emit("sim", "spawn", ts=start,
                    dur=float(arch.spawn_overhead),
                    thread=j, spawns=j + 1, tid=core)
        tracer.emit("sim", "exec", ts=start, dur=timing.finish - start,
                    thread=j, restarts=restarts,
                    stall=timing.total_stall, tid=core)
        if stall_log:
            for ci, ready_rel, wait in stall_log:
                ch = template.channels[ci]
                tracer.emit("sim", "recv_stall", ts=start + ready_rel,
                            dur=wait, thread=j, channel=ci,
                            producer=ch.producer, consumer=ch.consumer,
                            hops=ch.hops, tid=core)
        for ci, ch in enumerate(template.channels):
            tracer.emit("sim", "send",
                        ts=timing.completion_time(template, ch.producer),
                        thread=j, channel=ci, producer=ch.producer,
                        consumer=ch.consumer, hops=ch.hops, tid=core)
        tracer.emit("sim", "commit", ts=commit - arch.commit_overhead,
                    dur=float(arch.commit_overhead), thread=j, tid=core)

    # -- one thread execution ---------------------------------------------------

    def _execute(self, j: int, start: float,
                 timings: dict[int, ThreadTiming], *,
                 stall_log: list[tuple[int, float, float]] | None = None
                 ) -> ThreadTiming:
        """Resolve thread ``j``'s timing given all earlier threads.

        The resolver is shift-invariant: the relative arrival vector
        ``arrivals - start`` is its complete input, and steady and
        violation-periodic regimes (even post-squash transients) cycle
        through a handful of such vectors.  So outside the reference
        loop a new vector is resolved once at start 0 and every later
        thread that presents it gets that timing translated to its own
        start — the same floats, since ``(a - start) - 0.0`` is
        ``a - start`` and ``0.0 + x`` is ``x``.  The reference loop, the
        tracer's stall log and cache-miss draws resolve every call.
        """
        template = self.template
        arrivals: list[float] = []
        for idx, ch in enumerate(template.channels):
            producer_thread = j - ch.hops
            if producer_thread < 0 or producer_thread not in timings:
                # live-in values were broadcast to every core before the
                # loop started (Section 3): available immediately.
                arrivals.append(float("-inf"))
            else:
                arrivals.append(
                    timings[producer_thread].value_arrival(template, idx))
        arrivals = self._perturb_arrivals(j, arrivals)
        extra = self._draw_cache_extra()
        if self.sim.exact or stall_log is not None or extra is not None:
            return ThreadTiming.resolve(template, start, arrivals,
                                        extra_latency=extra,
                                        stall_log=stall_log)
        key = tuple([a - start for a in arrivals])
        resolved = self._resolved.get(key)
        if resolved is None:
            resolved = ThreadTiming.resolve(template, 0.0, key)
            if len(self._resolved) < _RESOLVE_CACHE_MAX:
                self._resolved[key] = resolved
        return resolved.shifted(start)

    def _draw_cache_extra(self) -> list[int] | None:
        """Per-load latency beyond an L1 hit, one
        :meth:`CacheModel.load_latency` draw per load (None when miss
        rates are zero — the deterministic default).

        The cache model and the template's load indices are derived on
        first use within a run (rng seed mix ``sim.seed ^ 0xCAC4E``), so
        every run of a simulator starts the miss stream from the same
        position and sees the current template.
        """
        arch = self.arch
        if arch.l1_miss_rate <= 0.0:
            return None
        if self._cache is None:
            self._cache = CacheModel(
                arch, np.random.default_rng(self.sim.seed ^ 0xCAC4E))
            self._load_indices = [
                i for i, name in enumerate(self.template.names)
                if self.pipelined.schedule.ddg.node(name).opcode.is_load
            ]
        extra = [0] * len(self.template.names)
        for i in self._load_indices:
            extra[i] = self._cache.load_latency() - arch.l1_hit_latency
        return extra


def simulate(pipelined: PipelinedLoop, arch: ArchConfig,
             sim: SimConfig | None = None, *,
             template: KernelTimingTemplate | None = None) -> SimStats:
    """Convenience wrapper: simulate ``pipelined`` on ``arch``."""
    return SpMTSimulator(pipelined, arch, sim, template=template).run()
