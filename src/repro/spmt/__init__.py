"""Discrete-event SpMT multicore simulator (the paper's Table-1 machine).

Executes a :class:`~repro.sched.postpass.PipelinedLoop` over ``N``
iterations on a ring of cores: one thread per kernel iteration, round-robin
core assignment, Voltron-queue SEND/RECV for synchronised register
dependences, MDT-style violation detection with squash + same-core
re-execution for speculated memory dependences, sequential spawns and
in-order head-thread commits.

Modules:

* :mod:`repro.spmt.stats` — per-run statistics (cycles, stall/overhead
  breakdown, SEND/RECV counts, misspeculations);
* :mod:`repro.spmt.channels` — per-thread timing of one kernel execution:
  the in-order stall model for RECV waits;
* :mod:`repro.spmt.violations` — speculated-dependence realisation draws
  and violation detection;
* :mod:`repro.spmt.sim` — the thread-level event loop;
* :mod:`repro.spmt.single` — single-core baselines (sequential
  list-scheduled code, and a modulo-scheduled kernel on one core).
"""

from .stats import SimStats
from .sim import SpMTSimulator, simulate
from .single import (
    simulate_sequential,
    simulate_modulo_single_core,
)

__all__ = [
    "SimStats",
    "SpMTSimulator",
    "simulate",
    "simulate_modulo_single_core",
    "simulate_sequential",
]
