"""Chaos-campaign robustness reporting.

A :class:`ChaosReport` is the output of one ``tms-experiments chaos``
campaign: one :class:`ChaosRow` per (kernel, scenario) run, recording the
faults injected, the simulator's survival statistics, the trace
sanitizer's findings, and the slowdown against the same kernel's clean
baseline run.  Like :mod:`repro.obs.report`, the dictionary form is a
stable versioned schema (:data:`CHAOS_REPORT_SCHEMA`, checked by
:func:`validate_chaos_report_dict`) so CI can archive it, diff it across
commits, and assert byte-identity across same-seed reruns.

Campaigns are *built* by :mod:`repro.faults.campaign`; this module owns
the pure data model.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..obs.schema import check_versioned, write_json

__all__ = [
    "CHAOS_REPORT_SCHEMA",
    "ChaosReport",
    "ChaosRow",
    "validate_chaos_report_dict",
    "write_chaos_report_json",
]

#: Schema version written into every chaos report dict.
#: v2: rows gained "policy" (the scheduling policy that produced the
#: kernel's final schedule, from the degradation chain's meta).
SCHEMA_VERSION = 2

#: Golden schema of :meth:`ChaosReport.to_dict`: required keys and their
#: types, with ``rows[*]`` and ``summary`` described one level deep.
CHAOS_REPORT_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "seed": int,
    "ncore": int,
    "iterations": int,
    "scenarios": list,
    "rows": {
        "kernel": str,
        "benchmark": str,
        "scenario": str,
        "plan": str,
        "policy": str,
        "seed": int,
        "iterations": int,
        "total_cycles": float,
        "misspeculations": int,
        "squashed_threads": int,
        "wasted_execution_cycles": float,
        "sync_stall_cycles": float,
        "injected": dict,
        "findings": list,
        "ok": bool,
        "slowdown": float,
    },
    "summary": {
        "n_runs": int,
        "n_kernels": int,
        "n_scenarios": int,
        "runs_ok": int,
        "invariant_violations": int,
        "injected_by_kind": dict,
        "max_slowdown": float,
        "max_slowdown_kernel": str,
    },
}


@dataclass(frozen=True)
class ChaosRow:
    """One (kernel, scenario) faulted run's outcome."""

    kernel: str
    benchmark: str
    scenario: str           #: campaign scenario name ("baseline", ...)
    plan: str               #: fault-plan name ("" for baseline)
    seed: int               #: the run's derived seed
    iterations: int
    total_cycles: float
    misspeculations: int
    squashed_threads: int
    wasted_execution_cycles: float
    sync_stall_cycles: float
    policy: str = "tms"       #: policy that produced the final schedule
    injected: dict[str, int] = field(default_factory=dict)
    findings: tuple[str, ...] = ()   #: sanitizer findings, rendered
    slowdown: float = 1.0            #: total_cycles / baseline total_cycles

    @property
    def ok(self) -> bool:
        """True when the run survived with zero invariant violations."""
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernel": self.kernel,
            "benchmark": self.benchmark,
            "scenario": self.scenario,
            "plan": self.plan,
            "policy": self.policy,
            "seed": self.seed,
            "iterations": self.iterations,
            "total_cycles": self.total_cycles,
            "misspeculations": self.misspeculations,
            "squashed_threads": self.squashed_threads,
            "wasted_execution_cycles": self.wasted_execution_cycles,
            "sync_stall_cycles": self.sync_stall_cycles,
            "injected": dict(sorted(self.injected.items())),
            "findings": list(self.findings),
            "ok": self.ok,
            "slowdown": self.slowdown,
        }


@dataclass(frozen=True)
class ChaosReport:
    """All rows of one chaos campaign plus campaign parameters."""

    rows: tuple[ChaosRow, ...]
    seed: int
    ncore: int
    iterations: int
    scenarios: tuple[str, ...]

    @property
    def invariant_violations(self) -> int:
        return sum(len(r.findings) for r in self.rows)

    def injected_by_kind(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for row in self.rows:
            for kind, n in row.injected.items():
                totals[kind] = totals.get(kind, 0) + n
        return dict(sorted(totals.items()))

    def worst_slowdown(self) -> ChaosRow | None:
        return max(self.rows, key=lambda r: r.slowdown, default=None)

    def to_dict(self) -> dict[str, Any]:
        """The stable, versioned report form
        (see :data:`CHAOS_REPORT_SCHEMA`)."""
        worst = self.worst_slowdown()
        return {
            "schema_version": SCHEMA_VERSION,
            "seed": self.seed,
            "ncore": self.ncore,
            "iterations": self.iterations,
            "scenarios": list(self.scenarios),
            "rows": [row.to_dict() for row in self.rows],
            "summary": {
                "n_runs": len(self.rows),
                "n_kernels": len({r.kernel for r in self.rows}),
                "n_scenarios": len({r.scenario for r in self.rows}),
                "runs_ok": sum(1 for r in self.rows if r.ok),
                "invariant_violations": self.invariant_violations,
                "injected_by_kind": self.injected_by_kind(),
                "max_slowdown": worst.slowdown if worst else 0.0,
                "max_slowdown_kernel": worst.kernel if worst else "",
            },
        }

    def render(self) -> str:
        """Per-run robustness table plus the campaign summary lines."""
        # local import: repro.experiments imports this package's siblings.
        from ..experiments.report import format_table

        table = format_table(
            ["Kernel", "Scenario", "Cycles", "Missp", "Squashed",
             "Injected", "Slowdown", "Invariants"],
            [[r.kernel, r.scenario, f"{r.total_cycles:.0f}",
              r.misspeculations, r.squashed_threads,
              sum(r.injected.values()), f"{r.slowdown:.2f}x",
              "ok" if r.ok else f"{len(r.findings)} VIOLATED"]
             for r in self.rows],
            title="Chaos campaign: seeded fault injection + trace sanitizer.")
        lines = [table, ""]
        lines.append(f"Runs: {len(self.rows)} "
                     f"({sum(1 for r in self.rows if r.ok)} ok)")
        injected = self.injected_by_kind()
        if injected:
            lines.append("Injected: " + ", ".join(
                f"{kind}={n}" for kind, n in injected.items()))
        worst = self.worst_slowdown()
        if worst is not None:
            lines.append(f"Max slowdown: {worst.slowdown:.2f}x "
                         f"({worst.kernel}, {worst.scenario})")
        if self.invariant_violations:
            lines.append(f"INVARIANT VIOLATIONS: "
                         f"{self.invariant_violations}")
            for row in self.rows:
                for finding in row.findings:
                    lines.append(f"  {row.kernel}/{row.scenario}: {finding}")
        else:
            lines.append("All trace invariants held under fault injection.")
        return "\n".join(lines)


def validate_chaos_report_dict(data: dict[str, Any]) -> None:
    """Check ``data`` against :data:`CHAOS_REPORT_SCHEMA`; raises
    ``ValueError`` on a missing key or mistyped value (the golden-schema
    gate in CI)."""
    check_versioned(data, CHAOS_REPORT_SCHEMA, SCHEMA_VERSION,
                    lists=("rows",))


def write_chaos_report_json(report: ChaosReport,
                            path: str | os.PathLike) -> None:
    """Persist the report's versioned dict form as pretty JSON.

    ``sort_keys`` plus the campaign's deterministic seeding make the
    file byte-identical across same-seed reruns — CI diffs it.
    """
    write_json(report.to_dict(), path)
