"""Cost-model-vs-simulator discrepancy reporting.

The paper's argument rests on the Section 4.2 cost model
(``T = T_nomiss + T_mis_spec``) predicting what the SpMT simulator
measures.  A :class:`DiscrepancyReport` makes that relationship visible:
one :class:`DiscrepancyRow` per (kernel, algorithm) comparing the model's
predicted cycle count against the simulated ``total_cycles``, plus
aggregate MAPE (mean absolute percentage error), so cost-model
regressions show up as numbers instead of staying silent.

The report's dictionary form is a stable, versioned schema
(:data:`REPORT_SCHEMA`, checked by :func:`validate_report_dict`) so CI
can archive and diff it across commits.  Reports are *built* by
:mod:`repro.experiments.validate` (which owns the compile/simulate
plumbing); this module owns the pure data model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .schema import check_versioned

__all__ = [
    "DiscrepancyReport",
    "DiscrepancyRow",
    "REPORT_SCHEMA",
    "mape",
    "validate_report_dict",
]

#: Schema version written into every report dict.
SCHEMA_VERSION = 1

#: Golden schema of :meth:`DiscrepancyReport.to_dict`: required keys and
#: their types, with ``rows[*]`` and ``summary`` described one level deep.
REPORT_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "iterations": int,
    "seed": int,
    "ncore": int,
    "rows": {
        "kernel": str,
        "benchmark": str,
        "algorithm": str,
        "ii": int,
        "c_delay": float,
        "p_m": float,
        "predicted_cycles": float,
        "simulated_cycles": float,
        "error_cycles": float,
        "abs_pct_error": float,
    },
    "summary": {
        "n_rows": int,
        "mape": float,
        "mape_by_algorithm": dict,
        "worst_kernel": str,
        "worst_abs_pct_error": float,
    },
}


def mape(rows: Sequence["DiscrepancyRow"]) -> float:
    """Mean absolute percentage error over ``rows`` (0.0 when empty)."""
    if not rows:
        return 0.0
    return sum(r.abs_pct_error for r in rows) / len(rows)


@dataclass(frozen=True)
class DiscrepancyRow:
    """Predicted-vs-simulated cycles for one (kernel, algorithm) point."""

    kernel: str
    benchmark: str
    algorithm: str          #: "sms" or "tms"
    ii: int
    c_delay: float
    p_m: float              #: model's kernel misspeculation probability
    predicted_cycles: float
    simulated_cycles: float

    @property
    def error_cycles(self) -> float:
        """Signed error: simulated minus predicted."""
        return self.simulated_cycles - self.predicted_cycles

    @property
    def abs_pct_error(self) -> float:
        """``|error| / simulated`` as a percentage (0 when simulated=0)."""
        if self.simulated_cycles == 0:
            return 0.0
        return abs(self.error_cycles) / self.simulated_cycles * 100.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "benchmark": self.benchmark,
            "algorithm": self.algorithm,
            "ii": self.ii,
            "c_delay": self.c_delay,
            "p_m": self.p_m,
            "predicted_cycles": self.predicted_cycles,
            "simulated_cycles": self.simulated_cycles,
            "error_cycles": self.error_cycles,
            "abs_pct_error": self.abs_pct_error,
        }


@dataclass(frozen=True)
class DiscrepancyReport:
    """All rows of one validation run plus run parameters."""

    rows: tuple[DiscrepancyRow, ...]
    iterations: int
    seed: int
    ncore: int

    @property
    def mape(self) -> float:
        """Aggregate MAPE over every row."""
        return mape(self.rows)

    def mape_by_algorithm(self) -> dict[str, float]:
        by_alg: dict[str, list[DiscrepancyRow]] = {}
        for row in self.rows:
            by_alg.setdefault(row.algorithm, []).append(row)
        return {alg: mape(rows) for alg, rows in sorted(by_alg.items())}

    def worst(self) -> DiscrepancyRow | None:
        """The row with the largest absolute percentage error."""
        return max(self.rows, key=lambda r: r.abs_pct_error, default=None)

    def to_dict(self) -> dict[str, Any]:
        """The stable, versioned report form (see :data:`REPORT_SCHEMA`)."""
        worst = self.worst()
        return {
            "schema_version": SCHEMA_VERSION,
            "iterations": self.iterations,
            "seed": self.seed,
            "ncore": self.ncore,
            "rows": [row.to_dict() for row in self.rows],
            "summary": {
                "n_rows": len(self.rows),
                "mape": self.mape,
                "mape_by_algorithm": self.mape_by_algorithm(),
                "worst_kernel": worst.kernel if worst else "",
                "worst_abs_pct_error":
                    worst.abs_pct_error if worst else 0.0,
            },
        }

    def render(self) -> str:
        """Per-kernel error table plus the aggregate MAPE lines."""
        # local import: repro.experiments imports this package's siblings.
        from ..experiments.report import format_table

        table = format_table(
            ["Kernel", "Alg", "II", "C_delay", "P_M",
             "Predicted", "Simulated", "Error", "|Err|%"],
            [[r.kernel, r.algorithm.upper(), r.ii, r.c_delay,
              f"{r.p_m:.4f}", f"{r.predicted_cycles:.0f}",
              f"{r.simulated_cycles:.0f}", f"{r.error_cycles:+.0f}",
              f"{r.abs_pct_error:.1f}%"] for r in self.rows],
            title="Cost model vs simulator (Section 4.2 validation).")
        lines = [table, ""]
        for alg, value in self.mape_by_algorithm().items():
            lines.append(f"MAPE ({alg.upper()}): {value:.2f}%")
        lines.append(f"MAPE (overall, {len(self.rows)} rows): "
                     f"{self.mape:.2f}%")
        worst = self.worst()
        if worst is not None:
            lines.append(f"Worst kernel: {worst.kernel} "
                         f"({worst.algorithm.upper()}, "
                         f"{worst.abs_pct_error:.1f}%)")
        return "\n".join(lines)


def validate_report_dict(data: dict[str, Any]) -> None:
    """Check ``data`` against :data:`REPORT_SCHEMA`; raises ``ValueError``
    on a missing key or mistyped value (the golden-schema gate in CI)."""
    check_versioned(data, REPORT_SCHEMA, SCHEMA_VERSION, lists=("rows",))
