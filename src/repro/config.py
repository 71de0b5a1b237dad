"""Architecture, scheduler and simulation configuration.

:class:`ArchConfig` captures every parameter of Table 1 of the paper
("Architecture simulated") plus the execution-model constants described in
Section 3 (Voltron-style queue model: 3-cycle SEND/RECV scalar communication,
3-cycle spawn, 2-cycle commit, 15-cycle invalidation).

The default values are the paper's quad-core SpMT machine.  All experiment
harnesses take an ``ArchConfig`` so the ablation benches can vary the core
count, operand-network latency, and cache behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .errors import MachineError

__all__ = ["ArchConfig", "KNOWN_POLICIES", "SchedulerConfig", "SimConfig"]

#: scheduling policies selectable via ``SchedulerConfig.policy`` (and the
#: ``--policy`` CLI flag).  Each names the first rung of the degradation
#: chain in :func:`repro.sched.degrade.schedule_with_degradation`.
KNOWN_POLICIES: tuple[str, ...] = ("tms", "sms", "ims", "seq")


@dataclass(frozen=True)
class ArchConfig:
    """SpMT multicore machine description (paper Table 1 + Section 3).

    Attributes
    ----------
    ncore:
        Number of cores on the uni-directional ring.  The paper evaluates a
        quad-core machine.
    issue_width:
        Fetch/issue/commit bandwidth of each core (instructions per cycle).
    l1_hit_latency:
        L1 D-cache hit latency in cycles (paper: 3).
    l2_hit_latency:
        Shared L2 hit latency in cycles (paper: 12).
    l2_miss_latency:
        Memory latency on an L2 miss in cycles (paper: 80).
    l1_miss_rate / l2_miss_rate:
        Probabilities used by the probabilistic cache substitute for the
        paper's detailed hierarchy (see DESIGN.md).  The *scheduler* always
        assumes an L1 hit (the compile-time latency); the *simulator* draws
        misses from these rates.
    reg_comm_latency:
        ``C_reg_com`` — producer-to-adjacent-consumer scalar communication
        latency: 1 cycle for SEND + 1 per hop + 1 for RECV = 3.
    spawn_overhead:
        ``C_spn`` — cycles to spawn the next iteration's thread (paper: 3).
        May be fractional (or zero).
    commit_overhead:
        ``C_ci`` — head-thread commit overhead (paper: 2, thanks to the
        double-buffered speculative write buffer).
    invalidation_overhead:
        ``C_inv`` — cycles to squash a misspeculated thread: gang-clear MDT
        and L1 bits, flush send/receive queues and the write buffer
        (paper: 15).
    write_buffer_entries:
        Speculative write buffer capacity per core (paper: 64, Hydra-style).
    mdt_entries:
        Memory disambiguation table capacity (entries tracked between L1 and
        L2).  0 means unbounded.
    """

    ncore: int = 4
    issue_width: int = 4
    l1_hit_latency: int = 3
    l2_hit_latency: int = 12
    l2_miss_latency: int = 80
    l1_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    reg_comm_latency: int = 3
    spawn_overhead: float = 3
    commit_overhead: int = 2
    invalidation_overhead: int = 15
    write_buffer_entries: int = 64
    mdt_entries: int = 0

    def __post_init__(self) -> None:
        if self.ncore < 1:
            raise MachineError(f"ncore must be >= 1, got {self.ncore}")
        if self.issue_width < 1:
            raise MachineError(f"issue_width must be >= 1, got {self.issue_width}")
        for name in ("l1_hit_latency", "l2_hit_latency", "l2_miss_latency",
                     "reg_comm_latency", "spawn_overhead", "commit_overhead",
                     "invalidation_overhead"):
            if getattr(self, name) < 0:
                raise MachineError(f"{name} must be non-negative")
        for name in ("l1_miss_rate", "l2_miss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise MachineError(f"{name} must be in [0, 1], got {rate}")

    @classmethod
    def paper_default(cls) -> "ArchConfig":
        """The quad-core machine of Table 1."""
        return cls()

    @classmethod
    def single_core(cls) -> "ArchConfig":
        """A single-core machine for the single-threaded baselines."""
        return cls(ncore=1, spawn_overhead=0, commit_overhead=0,
                   invalidation_overhead=0)

    def with_cores(self, ncore: int) -> "ArchConfig":
        return replace(self, ncore=ncore)

    def with_reg_comm_latency(self, latency: int) -> "ArchConfig":
        return replace(self, reg_comm_latency=latency)

    def as_table(self) -> list[tuple[str, str]]:
        """Render this configuration as (parameter, value) rows (Table 1)."""
        return [
            ("Fetch, Issue, Commit", f"bandwidth {self.issue_width}, out-of-order issue"),
            ("L1 I-Cache", "16KB, 4-way, 1 cycle (hit)"),
            ("L1 D-Cache", f"16KB, 4-way, {self.l1_hit_latency} cycle (hit)"),
            ("L2 Cache (shared)",
             f"1MB, 4-way, {self.l2_hit_latency} cycles (hit), "
             f"{self.l2_miss_latency} cycles (miss)"),
            ("Local Register File", "1 cycle"),
            ("SEND/RECV Latency", f"{self.reg_comm_latency} cycles"),
            ("Spawn Overhead", f"{self.spawn_overhead} cycles"),
            ("Commit Overhead", f"{self.commit_overhead} cycles"),
            ("Invalidation Overhead", f"{self.invalidation_overhead} cycles"),
            ("Cores", str(self.ncore)),
        ]


@dataclass(frozen=True)
class SchedulerConfig:
    """Knobs shared by the SMS/TMS/IMS schedulers.

    Attributes
    ----------
    p_max:
        TMS's ``P_max`` — upper bound on the misspeculation frequency of the
        non-preserved inter-iteration memory dependences in a partial
        schedule (Fig. 3, condition C2).  The paper treats it as a tunable
        in [0, 1]; our experiments default to 0.05 and the ablation bench
        sweeps it.
    p_max_candidates:
        When ``try_p_max_values`` is True the TMS driver schedules the loop
        once per value here and keeps the schedule with the best modelled
        execution time (the paper: "several values for P_max can be tried so
        that the best schedule for a loop can be picked").
    max_ii_factor:
        Hard bound on II as a multiple of the longest dependence path, used
        as a search safety net.
    max_candidates:
        TMS's attempt budget: the number of (II, C_delay) pairs, in
        ascending ``F``, one search (per ``P_max``) walks — placed or
        pruned — before it falls back to SMS placement.  The population's
        ``lucas_fft`` exhausts it on every compile (``tms.fallbacks``).
    budget_ratio_ii:
        IMS backtracking budget per II as a multiple of the node count.
    speculation:
        When False, TMS synchronises *all* inter-iteration memory
        dependences instead of speculating them (the Section 5.2 ablation:
        every memory dependence must be preserved, i.e. treated like a
        register dependence for C1 purposes).
    include_reg_anti_deps:
        Include register anti/output dependences in the DDG.  Off by
        default: the schedulers assume virtual registers are renamed by the
        post-pass (modulo variable expansion), matching GCC's SMS.
    max_schedule_seconds:
        Wall-clock watchdog on one TMS ``(II, C_delay)`` search.  ``None``
        (the default) disables the watchdog; when set, a search that
        exceeds the budget raises
        :class:`~repro.errors.SchedulingBudgetExceeded`, which
        :func:`repro.sched.degrade.schedule_with_degradation` turns into a
        TMS -> SMS -> sequential fallback instead of a hang.
    policy:
        First rung of the degradation chain (one of
        :data:`KNOWN_POLICIES`): ``"tms"`` (the default) runs the full
        TMS -> SMS -> IMS -> SEQ ladder; ``"sms"``/``"ims"``/``"seq"``
        start further down, scheduling with the named baseline instead of
        TMS (useful for ablations).
    """

    p_max: float = 0.05
    try_p_max_values: bool = False
    p_max_candidates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.2, 1.0)
    max_ii_factor: float = 2.0
    max_candidates: int = 4000
    budget_ratio_ii: int = 3
    speculation: bool = True
    include_reg_anti_deps: bool = False
    max_schedule_seconds: float | None = None
    policy: str = "tms"

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_max <= 1.0:
            raise MachineError(f"p_max must be in [0, 1], got {self.p_max}")
        if self.policy not in KNOWN_POLICIES:
            raise MachineError(
                f"policy must be one of {KNOWN_POLICIES}, got "
                f"{self.policy!r}")
        if self.max_ii_factor < 1.0:
            raise MachineError("max_ii_factor must be >= 1.0")
        if self.max_candidates < 1:
            raise MachineError("max_candidates must be >= 1")
        if self.max_schedule_seconds is not None \
                and self.max_schedule_seconds < 0:
            raise MachineError("max_schedule_seconds must be >= 0 or None")


@dataclass(frozen=True)
class SimConfig:
    """Simulation run parameters.

    Attributes
    ----------
    iterations:
        Trip count ``N`` of the simulated loop.  The cost model assumes
        ``N >> ncore``.
    seed:
        RNG seed for memory-dependence realisation and cache-miss draws.
        Experiments use a different seed from the profiling run, mirroring
        the paper's train-input/large-input split.
    trace:
        Record a per-thread event trace (slower; used by tests/examples).
    max_events:
        Safety bound on simulator events to guarantee termination.
    exact:
        Force the reference per-thread event loop, disabling the
        steady-state fast path (see docs/simulator.md).  The
        ``REPRO_SIM_EXACT=1`` environment variable forces the same mode
        process-wide; results are byte-identical either way — this is the
        differential oracle's escape hatch, not a different model.
    """

    iterations: int = 1000
    seed: int = 0xACE5
    trace: bool = False
    max_events: int = 50_000_000
    exact: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise MachineError("iterations must be >= 1")

    def with_iterations(self, n: int) -> "SimConfig":
        return replace(self, iterations=n)

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)


def summarize_config(cfg: Any) -> str:
    """One-line human-readable summary of any config dataclass."""
    fields_str = ", ".join(
        f"{name}={getattr(cfg, name)!r}" for name in cfg.__dataclass_fields__
    )
    return f"{type(cfg).__name__}({fields_str})"
