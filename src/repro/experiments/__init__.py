"""Experiment harnesses: one module per table/figure of the paper.

Every harness returns plain data structures (lists of dataclasses / dicts)
and offers a ``render(...)`` producing the table the paper prints.  The
``runner`` module exposes them as a CLI (``tms-experiments``, also
``python -m repro.experiments``), the one way to regenerate the paper;
tier-1 ``tests/experiments/`` checks each artefact's shape.  Harnesses
compile and simulate in batches through the process
:class:`~repro.session.Session` (``compile_many`` / ``simulate_many``).

Quick-vs-full: harnesses accept ``max_loops`` (per-benchmark population
cap) and ``iterations`` (simulated trip count); the defaults keep a full
run tractable on a laptop, and ``--quick`` reduces them further.
"""

from .pipeline import CompiledLoop
from .table1 import table1
from .table2 import Table2Row, run_table2, render_table2
from .table3 import Table3Row, run_table3, render_table3
from .fig4 import Fig4Row, run_fig4, render_fig4
from .fig5 import Fig5Row, run_fig5, render_fig5
from .fig6 import Fig6Row, run_fig6, render_fig6
from .speculation import SpeculationRow, run_speculation, render_speculation
from .ablation import run_pmax_sweep, run_comm_latency_sweep, run_core_sweep

__all__ = [
    "CompiledLoop",
    "Fig4Row",
    "Fig5Row",
    "Fig6Row",
    "SpeculationRow",
    "Table2Row",
    "Table3Row",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_speculation",
    "render_table2",
    "render_table3",
    "run_comm_latency_sweep",
    "run_core_sweep",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_pmax_sweep",
    "run_speculation",
    "run_table2",
    "run_table3",
    "table1",
]
