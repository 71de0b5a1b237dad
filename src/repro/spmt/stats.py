"""Simulation statistics.

Field names follow the paper's measurement vocabulary (Section 5.2):

* *synchronisation stall* — cycles committed threads spend stalled at a
  RECV instruction on an empty receive queue;
* *SEND/RECV pairs* — dynamic count over committed threads;
* *communication overhead* — stall cycles plus ``C_reg_com`` times the
  dynamic pair count;
* *misspeculation frequency* — violations over committed threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ArchConfig

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Outcome of one SpMT simulation run."""

    iterations: int = 0
    ncore: int = 0
    total_cycles: float = 0.0
    #: RECV-wait cycles summed over committed thread executions.
    sync_stall_cycles: float = 0.0
    #: dynamic SEND/RECV pairs over committed threads.
    send_recv_pairs: int = 0
    #: violations detected (each squashes >= 1 thread).
    misspeculations: int = 0
    #: threads squashed (the violated thread plus more speculative ones).
    squashed_threads: int = 0
    #: cycles spent in invalidations.
    invalidation_cycles: float = 0.0
    #: cycles wasted in squashed executions.
    wasted_execution_cycles: float = 0.0
    #: spawn / commit overhead cycles (N * C_spn, N * C_ci by construction).
    spawn_cycles: float = 0.0
    commit_cycles: float = 0.0
    #: ``C_reg_com`` of the simulated machine.  The default is derived
    #: from :class:`~repro.config.ArchConfig` (the simulator overwrites
    #: it with the actual run's value) so it cannot drift from the
    #: machine model.
    reg_comm_latency: int = field(
        default_factory=lambda: ArchConfig.paper_default().reg_comm_latency)

    def to_dict(self) -> dict:
        """JSON-ready numeric view of the run (the golden-pin format).

        Cycle fields are cast through ``float`` so numpy scalars never
        leak into serialised output.  The per-thread timeline is not
        part of a run's statistics: record it as ``sim`` events under
        ``Telemetry(events=True)``.
        """
        return {
            "iterations": int(self.iterations),
            "ncore": int(self.ncore),
            "total_cycles": float(self.total_cycles),
            "sync_stall_cycles": float(self.sync_stall_cycles),
            "send_recv_pairs": int(self.send_recv_pairs),
            "misspeculations": int(self.misspeculations),
            "squashed_threads": int(self.squashed_threads),
            "invalidation_cycles": float(self.invalidation_cycles),
            "wasted_execution_cycles": float(self.wasted_execution_cycles),
            "spawn_cycles": float(self.spawn_cycles),
            "commit_cycles": float(self.commit_cycles),
            "reg_comm_latency": int(self.reg_comm_latency),
        }

    @property
    def communication_overhead(self) -> float:
        """Stall cycles + C_reg_com x dynamic SEND/RECV pairs (Fig. 6c)."""
        return self.sync_stall_cycles + self.reg_comm_latency * self.send_recv_pairs

    @property
    def misspec_frequency(self) -> float:
        """Misspeculations per committed thread (paper: < 0.1% under TMS)."""
        return self.misspeculations / self.iterations if self.iterations else 0.0

    @property
    def cycles_per_iteration(self) -> float:
        return self.total_cycles / self.iterations if self.iterations else 0.0

    def summary(self) -> str:
        return (f"{self.total_cycles:.0f} cycles for {self.iterations} iterations "
                f"on {self.ncore} core(s): {self.cycles_per_iteration:.2f} cyc/iter, "
                f"stalls {self.sync_stall_cycles:.0f}, "
                f"pairs {self.send_recv_pairs}, "
                f"misspec {self.misspeculations} "
                f"({100 * self.misspec_frequency:.3f}%)")
