"""The paper's cost model (Section 4.2) and definitions 2-4.

* :mod:`repro.costmodel.sync` — synchronisation delay of a register
  dependence (Definition 2, generalised to kernel distances > 1), the
  skew a memory dependence needs in order to be *preserved*, and the
  one preserved-by test (Definition 3, ancestor-refined), which TMS's C2
  and the kernel ``P_M`` share.
* :mod:`repro.costmodel.misspec` — kernel misspeculation probability
  ``P_M`` (Equation 3).
* :mod:`repro.costmodel.exectime` — ``T_lb``, the objective
  ``F(II, C_delay)``, ``T_nomiss`` (Equation 2), the misspeculation
  penalty and ``T_mis_spec``, and the end-to-end execution-time estimate
  for a schedule.
"""

from .sync import (
    ScheduleView,
    sync_delay,
    required_skew,
    intra_ancestors,
    preserved,
    non_preserved_memory_deps,
)
from .misspec import misspec_probability
from .exectime import (
    CostEstimate,
    achieved_c_delay,
    estimate_execution_time,
    kernel_misspec_probability,
    misspec_penalty,
    objective_f,
    t_lower_bound,
)

__all__ = [
    "CostEstimate",
    "ScheduleView",
    "achieved_c_delay",
    "estimate_execution_time",
    "intra_ancestors",
    "kernel_misspec_probability",
    "misspec_penalty",
    "misspec_probability",
    "non_preserved_memory_deps",
    "objective_f",
    "preserved",
    "required_skew",
    "sync_delay",
    "t_lower_bound",
]
