"""Modulo schedulers and scheduling support.

* :mod:`repro.sched.engine` — the unified placement engine: incremental
  partial schedules, memoized dependence windows, and the pluggable
  :class:`~repro.sched.engine.SlotPolicy` protocol every scheduler here
  runs on (see ``docs/scheduling.md``).
* :mod:`repro.sched.schedule` — the :class:`Schedule` produced by every
  scheduler: absolute issue slots, stages, kernel rows, kernel distances
  (Definition 1), and a validator.
* :mod:`repro.sched.ordering` — SMS node ordering (SCC-prioritised swing
  order).
* :mod:`repro.sched.sms` — Swing Modulo Scheduling (Llosa, PACT'96), the
  baseline the paper builds on (GCC 4.1.1's implementation).
* :mod:`repro.sched.tms` — Thread-sensitive Modulo Scheduling (the paper's
  contribution, Figure 3).
* :mod:`repro.sched.ims` — Rau's iterative modulo scheduling, an extra
  baseline.
* :mod:`repro.sched.degrade` — the TMS -> SMS -> IMS -> SEQ degradation
  chain and single-policy dispatch (``schedule_with_policy``).
* :mod:`repro.sched.listsched` — acyclic list scheduling for the
  single-threaded comparison (Figure 5).
* :mod:`repro.sched.postpass` — modulo variable expansion (register
  copies), SEND/RECV insertion, MaxLive.
* :mod:`repro.sched.pipeline_exec` — semantic equivalence checker that
  replays a schedule against the reference interpreter.
"""

from .schedule import Schedule, validate_schedule
from .engine import (
    EngineContext,
    PartialSchedule,
    PlacementEngine,
    SlotPolicy,
    TMSPolicy,
    WindowTable,
)
from .sms import SwingModuloScheduler, schedule_sms
from .tms import ThreadSensitiveScheduler, schedule_tms
from .ims import IterativeModuloScheduler, schedule_ims
from .huff import HuffModuloScheduler, schedule_huff
from .degrade import (
    schedule_sequential_fallback,
    schedule_with_degradation,
    schedule_with_policy,
)
from .listsched import ListSchedule, list_schedule
from .postpass import CommPlan, PipelinedLoop, run_postpass
from .maxlive import max_live
from .codegen import ThreadProgram, generate_thread_program
from .regalloc import RegisterAllocation, allocate_registers
from .viz import flat_schedule_chart, kernel_gantt, thread_timeline

__all__ = [
    "CommPlan",
    "EngineContext",
    "HuffModuloScheduler",
    "IterativeModuloScheduler",
    "ListSchedule",
    "PartialSchedule",
    "PipelinedLoop",
    "PlacementEngine",
    "RegisterAllocation",
    "Schedule",
    "SlotPolicy",
    "SwingModuloScheduler",
    "TMSPolicy",
    "ThreadProgram",
    "ThreadSensitiveScheduler",
    "WindowTable",
    "allocate_registers",
    "flat_schedule_chart",
    "generate_thread_program",
    "kernel_gantt",
    "list_schedule",
    "max_live",
    "run_postpass",
    "schedule_huff",
    "schedule_ims",
    "schedule_sequential_fallback",
    "schedule_sms",
    "schedule_tms",
    "schedule_with_degradation",
    "schedule_with_policy",
    "thread_timeline",
    "validate_schedule",
]
