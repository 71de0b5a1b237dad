"""Unified modulo-scheduling engine.

One placement core — incremental partial schedules, a per-DDG dependence
window table, pluggable slot policies — that IMS, SMS and TMS are thin policy
instances over.  See :mod:`repro.sched.engine.core` for the two
placement disciplines and ``docs/scheduling.md`` for the architecture.
"""

from .context import EngineContext
from .core import PlacementEngine
from .partial import PartialSchedule
from .policy import SlotPolicy, TMSContext, TMSPolicy, Trail
from .windows import WindowTable

__all__ = [
    "EngineContext",
    "PartialSchedule",
    "PlacementEngine",
    "SlotPolicy",
    "TMSContext",
    "TMSPolicy",
    "Trail",
    "WindowTable",
]
