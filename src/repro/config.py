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

from dataclasses import dataclass, replace

from .errors import MachineError

__all__ = ["ArchConfig", "KNOWN_POLICIES", "SchedulerConfig", "SimConfig"]

#: scheduling policies :func:`repro.sched.degrade.schedule_with_policy`
#: runs (and the ``compile --policy`` CLI flag names), in the order of the
#: degradation ladder.
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
    speculation:
        When False, TMS synchronises *all* inter-iteration memory
        dependences instead of speculating them (the Section 5.2 ablation:
        every memory dependence must be preserved, i.e. treated like a
        register dependence for C1 purposes).
    """

    p_max: float = 0.05
    try_p_max_values: bool = False
    p_max_candidates: tuple[float, ...] = (0.0, 0.01, 0.05, 0.2, 1.0)
    speculation: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_max <= 1.0:
            raise MachineError(f"p_max must be in [0, 1], got {self.p_max}")


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
    exact:
        Force the reference per-thread event loop: every thread resolved
        afresh, no resolution memo, no steady-state skips or replays (see
        docs/simulator.md).  Results are byte-identical either way — this
        is the differential oracle, not a different model.

    A run's per-thread timeline is its ``sim`` event stream, recorded by
    simulating under ``Telemetry(events=True)``.
    """

    iterations: int = 1000
    seed: int = 0xACE5
    exact: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise MachineError("iterations must be >= 1")

    def with_iterations(self, n: int) -> "SimConfig":
        return replace(self, iterations=n)

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

