"""Thread-sensitive Modulo Scheduling (the paper's contribution, Figure 3).

TMS keeps SMS's machinery (same node order, same windows, same restart-on-
failure discipline) and changes two things:

1. **Objective.**  Instead of minimising II alone, TMS minimises
   ``F(II, C_delay) = T_nomiss / N`` (Section 4.2).  It enumerates
   ``(II, C_delay)`` pairs in increasing order of ``F`` — the exact analogue
   of Figure 3's ``F_min++`` loop, with exact ``F`` granularity — and
   returns the first pair admitting a valid schedule.

2. **Issue-slot selection.**  A conflict-free slot is accepted only if
   (C1) every *new* inter-iteration register dependence it creates has a
   sync delay at most the current ``C_delay`` threshold, and (C2) whenever
   it introduces new inter-iteration memory dependences, the misspeculation
   frequency ``1 - prod(1 - p_e)`` over all *non-preserved* memory
   dependences among the scheduled instructions stays at most ``P_max``.

Prefix replay (exact): placement reads ``C_delay`` only in C1's
``maxsync <= C_delay`` test — C2, the slot score, the windows and the
resources never read it.  So a ``select`` call answers differently at a
higher threshold only once C1 admits a row it rejected that fits, passes
C2 and gives a slotless node a slot or beats the chosen row.  Each seed
pass of a placed candidate ``(II, C)`` leaves a :class:`Trail`: per
call, the chosen cycle and ``μ``, the smallest such ``maxsync`` over the
pass's calls so far.  Each II's candidates are walked by increasing
``C_delay``, so the next one placed at that II, ``(II, C')`` with ``C' >=
C``, repeats every call before the first with ``μ <= C'``: it re-places
that prefix without a ``select`` call and scans from there.  A repeated
call's ``μ`` carries over unchanged (see
:mod:`repro.sched.engine.policy`), so the resumed pass leaves exactly the
trail a from-scratch placement would.  A pass that repeats whole fails
as before and is not run (its ``place`` and ``place_fail`` events are
still emitted); a candidate whose two passes both repeat whole is marked
``pruned`` without placing anything.  Pruned candidates count toward
the attempt budget (:data:`MAX_CANDIDATES`), so the search stops where
an unpruned one would, and no divergence from Figure 3 remains.

The ``speculation=False`` mode (Section 5.2's ablation) treats memory flow
dependences as synchronised: they join C1 and never misspeculate.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator, Mapping

from ..config import ArchConfig, SchedulerConfig
from ..costmodel.exectime import (
    achieved_c_delay,
    estimate_execution_time,
    kernel_misspec_probability,
    objective_f,
    t_lower_bound,
)
from ..errors import SchedulingError
from ..graph.ddg import DDG
from ..machine.resources import ResourceModel
from ..obs import metrics, telemetry
from .engine import TMSContext, TMSPolicy, Trail
from .schedule import Schedule, validate_schedule
from .sms import LoopAnalysis, SwingModuloScheduler

__all__ = ["MAX_CANDIDATES", "ThreadSensitiveScheduler", "schedule_tms"]

#: the attempt budget: the (II, C_delay) pairs, in ascending ``F``, one
#: search (per ``P_max``) walks — placed or pruned — before it falls back
#: to first-fit placement.  The population's ``lucas_fft`` exhausts it on
#: every compile (``tms.fallbacks``).
MAX_CANDIDATES = 4000


class ThreadSensitiveScheduler(SwingModuloScheduler):
    """TMS over one DDG, resource model and SpMT architecture."""

    algorithm_name = "TMS"

    def __init__(self, ddg: DDG, resources: ResourceModel, arch: ArchConfig,
                 config: SchedulerConfig | None = None,
                 analysis: LoopAnalysis | None = None) -> None:
        super().__init__(ddg, resources, analysis)
        self.config = config or SchedulerConfig()
        self.arch = arch
        self._max_lat = max((n.latency for n in ddg.nodes), default=1)
        #: per-DDG facts of the C1/C2 conditions (flow-edge tables,
        #: ancestor closures, tiebreak inputs), shared by every
        #: (II, C_delay) candidate of the search.
        self._tms_ctx = TMSContext(ddg, self.engine.ctx)

    # -- public API -----------------------------------------------------------

    def schedule(self) -> Schedule:
        cfg = self.config
        if not cfg.try_p_max_values:
            return self._schedule_with_pmax(cfg.p_max)
        # Paper: "several values for P_max can be tried so that the best
        # schedule for a loop can be picked" — pick by modelled total time.
        best: Schedule | None = None
        best_cost = math.inf
        for p_max in cfg.p_max_candidates:
            try:
                sched = self._schedule_with_pmax(p_max)
            except SchedulingError:
                continue
            cost = estimate_execution_time(
                sched, self.arch, iterations=1000,
                synchronize_memory=not cfg.speculation).total
            if cost < best_cost:
                best, best_cost = sched, cost
        if best is None:
            raise SchedulingError(
                f"TMS failed on {self.ddg.name!r} for every P_max candidate")
        return best

    # -- candidate enumeration ---------------------------------------------

    def _c_delay_min(self) -> int:
        """Smallest meaningful C_delay threshold: ``1 + C_reg_com``
        (Definition 2 with a unit-latency producer issuing in the
        consumer's row)."""
        return 1 + self.arch.reg_comm_latency

    def _c_delay_cap(self, ii: int) -> int:
        """Largest sync delay any single-hop dependence can exhibit at this
        II; beyond it C1 never binds."""
        return ii - 1 + self._max_lat + self.arch.reg_comm_latency

    def _candidates(self) -> Iterator[tuple[float, int, int]]:
        """(F, C_delay, II) triples by increasing F, then C_delay (prefer
        TLP), then II — lazily: the attempt budget stops the walk long
        before the end.  F never falls as C_delay grows at a fixed II, so
        each II's row is already in that order and merging the rows
        yields the fully sorted sequence."""
        return heapq.merge(*(self._ii_candidates(ii) for ii in
                             range(self.mii, self.max_ii + 1)))

    def _ii_candidates(self, ii: int) -> Iterator[tuple[float, int, int]]:
        """One II's (F, C_delay, II) triples by increasing C_delay."""
        for cd in range(self._c_delay_min(), self._c_delay_cap(ii) + 1):
            yield objective_f(ii, cd, self.arch), cd, ii

    # -- main search ----------------------------------------------------------

    def _schedule_with_pmax(self, p_max: float) -> Schedule:
        tracer = telemetry.current().tracer
        metrics.counter(
            "tms.searches", "TMS (II, C_delay) searches started").inc()
        if tracer.enabled:
            tracer.emit("sched", "tms.search", loop=self.ddg.name,
                        p_max=p_max, mii=self.mii, max_ii=self.max_ii,
                        ncore=self.arch.ncore)
        attempts = 0
        # per (II, seed pass): that pass of the last candidate placed at
        # the II (see the module docstring)
        trails: dict[tuple[int, bool], Trail] = {}
        for index, (f_value, cd, ii) in enumerate(self._candidates()):
            if attempts >= MAX_CANDIDATES:
                if tracer.enabled:
                    tracer.emit("sched", "tms.budget_exhausted",
                                loop=self.ddg.name, attempts=attempts)
                break
            attempts += 1
            passes = [trails.get((ii, high)) for high in (False, True)]
            if all(t is not None and t.repeats(cd) for t in passes):
                if tracer.enabled:
                    self._emit_candidate(tracer, index, ii, cd, f_value,
                                         "pruned", replays=passes[0].c_delay)
                continue
            metrics.counter(
                "tms.candidates",
                "TMS (II, C_delay) candidates placed").inc()
            slots, replay_floor = self._try_tms(ii, cd, p_max, trails)
            if slots is None:
                if tracer.enabled:
                    self._emit_candidate(
                        tracer, index, ii, cd, f_value, "reject",
                        replay_floor=(replay_floor if replay_floor < math.inf
                                      else None))
                continue
            if tracer.enabled:
                self._emit_candidate(tracer, index, ii, cd, f_value, "accept")
            return self._finish(ii, slots, cd, p_max, f_value, fallback=False)
        # Fallback: C1 unconstrained (threshold at cap) and C2 disabled —
        # first-fit placement in the swing order with seeds anchored high,
        # as in TMS's second pass, at the lowest II that admits it; keeps
        # suite runs robust on pathological DDGs.  Recorded in meta.
        ii, slots = self._lowest_ii(
            lambda ii: self.try_ii(ii, seed_high=True))
        cd = self._c_delay_cap(ii)
        metrics.counter(
            "tms.fallbacks",
            "TMS searches resolved by the first-fit fallback").inc()
        if tracer.enabled:
            tracer.emit("sched", "tms.fallback", loop=self.ddg.name,
                        ii=ii, c_delay=cd, outcome="accept")
        return self._finish(ii, slots, cd, 1.0,
                            objective_f(ii, cd, self.arch), fallback=True)

    def _emit_candidate(self, tracer, index: int, ii: int, cd: int,
                        f_value: float, outcome: str, **why) -> None:
        """One ``tms.candidate`` event: the (II, C_delay) pair, the full
        ``F`` objective breakdown (its four max-terms), and the outcome
        (``accept`` / ``reject`` / ``pruned``) with ``why``: a reject's
        ``replay_floor`` (``None`` when unbounded), the C_delay of the
        rejected pair a pruned one ``replays``."""
        arch = self.arch
        tracer.emit(
            "sched", "tms.candidate", loop=self.ddg.name, index=index,
            ii=ii, c_delay=cd, f=f_value,
            f_c_spn=float(arch.spawn_overhead),
            f_c_ci=float(arch.commit_overhead),
            f_c_delay=float(cd),
            f_t_lb_share=t_lower_bound(ii, cd, arch) / arch.ncore,
            outcome=outcome, **why)

    def _finish(self, ii: int, slots: Mapping[str, int], cd: int, p_max: float,
                f_value: float, *, fallback: bool) -> Schedule:
        sched = Schedule(self.ddg, ii, slots, algorithm=self.algorithm_name,
                         meta={"mii": self.mii, "ldp": self.ldp,
                               "c_delay_threshold": cd, "p_max": p_max,
                               "objective_f": f_value, "fallback": fallback})
        validate_schedule(sched, self.resources)
        sched.meta["achieved_c_delay"] = achieved_c_delay(
            sched, self.arch, include_memory=not self.config.speculation)
        # with speculation off every memory dependence is synchronised
        sched.meta["p_m"] = kernel_misspec_probability(sched, self.arch) \
            if self.config.speculation else 0.0
        return sched

    # -- one TMS scheduling attempt ---------------------------------------------

    def _try_tms(self, ii: int, c_delay: int, p_max: float,
                 trails: dict[tuple[int, bool], Trail] | None = None
                 ) -> tuple[dict[str, int] | None, float]:
        """SMS placement with Figure 3's C1/C2 acceptance conditions
        (a :class:`TMSPolicy` over the shared placement engine).

        Two placement passes: seeds anchored at their ASAP first (best
        for small bodies), then anchored at the top of their II range
        (gives deep sink-seeded chains slack against resource conflicts,
        e.g. equake's smvp strands).  The policy's incremental
        Definition-4 state resets between passes (``begin_attempt``).

        ``trails`` is the search's store of the last passes placed per
        ``(II, seed pass)``: each pass resumes from the prefix its trail
        shares at ``c_delay`` (a pass it repeats whole is not run) and
        leaves its own trail there.  Without a store every pass places
        from scratch.

        Returns ``(slots, m)``: the slot map (``None`` on failure) and
        the smallest ``μ`` over both passes, the threshold from which a
        ``select`` call of them would answer differently.
        """
        policy = TMSPolicy(self._tms_ctx, self.arch, self.config, ii,
                           c_delay, p_max)
        replay_floor = math.inf
        for seed_high in (False, True):
            trail = None if trails is None else trails.get((ii, seed_high))
            if trail is not None and trail.repeats(c_delay):
                # the whole pass repeats: it fails as before
                self.engine.replay_failure(ii, self.order, trail.cycles,
                                           alg=self.algorithm_name)
                trails[(ii, seed_high)] = Trail(c_delay, trail.cycles,
                                                trail.floors)
                replay_floor = min(replay_floor, trail.floors[-1])
                continue
            shared = 0 if trail is None else trail.shared(c_delay)
            prefix = policy.resume(trail, shared)
            slots = self.try_policy(ii, policy, seed_high, prefix)
            if slots is not None:
                return slots, policy.replay_floor
            replay_floor = min(replay_floor, policy.replay_floor)
            if trails is not None:
                trails[(ii, seed_high)] = policy.trail
        return None, replay_floor


def schedule_tms(ddg: DDG, resources: ResourceModel, arch: ArchConfig,
                 config: SchedulerConfig | None = None) -> Schedule:
    """Convenience wrapper: TMS-schedule ``ddg``."""
    return ThreadSensitiveScheduler(ddg, resources, arch, config).schedule()
