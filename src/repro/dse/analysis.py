"""Sweep analysis: best configs, Pareto frontier, sensitivity, reports.

Consumes the deterministic trial list a :class:`~repro.dse.engine.
SweepEngine` run produces and derives the three views the paper's own
evaluation walks through:

* the **best configuration per kernel** (which design point made each
  DOACROSS loop fastest under TMS, and by how much over SMS);
* the **TMS-vs-SMS speedup Pareto frontier** over configurable
  objectives — by default maximising mean speedup while minimising the
  swept hardware-cost axes (cores, scalar-network latency), the
  cores × comm-latency trade-off of the paper's Section 5 sweeps;
* per-dimension **sensitivity**: how much the mean speedup moves across
  each swept parameter's values, holding the trial population fixed.

``SweepReport.to_dict()`` is a stable, versioned schema
(:data:`DSE_REPORT_SCHEMA`, checked by :func:`validate_dse_report_dict`)
that CI archives and diffs; ``render_markdown()`` is the human form.
No wall-clock, hostnames or other run-local noise goes into either, so
cold, warm-cache and resumed runs of one sweep serialise to identical
bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Sequence

from ..errors import MachineError
from ..obs import metrics
from ..obs.schema import check_versioned, write_json
from .space import ParameterSpace
from .trial import TrialResult

__all__ = ["DSE_REPORT_SCHEMA", "SweepReport", "pareto_frontier",
           "validate_dse_report_dict", "write_report_json"]

#: schema version written into every report dict
REPORT_VERSION = 1

#: arch dimensions treated as hardware cost (minimised) by default
_COST_DIMENSIONS = ("arch.ncore", "arch.reg_comm_latency",
                    "arch.issue_width")

#: Golden schema of :meth:`SweepReport.to_dict` (one level deep for the
#: repeated elements, mirroring ``repro.obs.report.REPORT_SCHEMA``).
DSE_REPORT_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "strategy": str,
    "seed": int,
    "space": dict,
    "objectives": list,
    "n_trials": int,
    "trials": {
        "key": str,
        "params": dict,
        "fidelity": int,
        "seed": int,
        "kernels": list,
        "failed_kernels": list,
        "metrics": dict,
    },
    "best_configs": dict,
    "pareto": {
        "params": dict,
        "objectives": dict,
    },
    "sensitivity": dict,
}


def pareto_frontier(results: Sequence[TrialResult],
                    objectives: Sequence[tuple[str, str]]
                    ) -> list[TrialResult]:
    """The non-dominated subset of ``results`` under ``objectives``.

    Each objective is ``(metric-or-parameter name, "max" | "min")``;
    a trial dominates another when it is at least as good on every
    objective and strictly better on one.  Input order is preserved,
    and duplicate objective vectors keep only their first trial (so the
    frontier, like everything else in the report, is deterministic).
    """
    for _name, direction in objectives:
        if direction not in ("max", "min"):
            raise MachineError(
                f"objective direction must be 'max' or 'min', got "
                f"{direction!r}")
    vectors = []
    for r in results:
        vec = tuple(r.metric(name) if d == "max" else -r.metric(name)
                    for name, d in objectives)
        vectors.append(vec)
    frontier: list[TrialResult] = []
    seen_vectors: set[tuple[float, ...]] = set()
    for i, vec in enumerate(vectors):
        if vec in seen_vectors:
            continue
        dominated = any(
            all(o >= v for o, v in zip(other, vec)) and other != vec
            for other in vectors)
        if not dominated:
            frontier.append(results[i])
            seen_vectors.add(vec)
    return frontier


@dataclass(frozen=True)
class SweepReport:
    """The analysed form of one sweep (pure data; no I/O)."""

    space: ParameterSpace
    strategy: str
    seed: int
    results: tuple[TrialResult, ...]
    objectives: tuple[tuple[str, str], ...] = ()

    @classmethod
    def build(cls, space: ParameterSpace, strategy: str, seed: int,
              results: Sequence[TrialResult],
              objectives: Sequence[tuple[str, str]] | None = None
              ) -> "SweepReport":
        """Assemble a report, defaulting the Pareto objectives to
        (maximise mean speedup) × (minimise each swept cost axis)."""
        if objectives is None:
            swept = {d.name for d in space.dimensions if len(d) > 1}
            objectives = [("mean_speedup", "max")] + [
                (name, "min") for name in _COST_DIMENSIONS
                if name in swept]
        report = cls(space=space, strategy=strategy, seed=seed,
                     results=tuple(results),
                     objectives=tuple(objectives))
        metrics.gauge("dse.pareto_points",
                      "size of the last computed Pareto frontier").set(
            len(report.pareto()))
        return report

    # -- views ---------------------------------------------------------------

    def final_results(self) -> list[TrialResult]:
        """One result per design point: the highest-fidelity evaluation
        of each assignment (adaptive strategies revisit points)."""
        best: dict[tuple, TrialResult] = {}
        for r in self.results:
            prev = best.get(r.params)
            if prev is None or r.fidelity > prev.fidelity:
                best[r.params] = r
        return list(best.values())

    def pareto(self) -> list[TrialResult]:
        """Non-dominated design points under :attr:`objectives`."""
        return pareto_frontier(self.final_results(), self.objectives)

    def best_configs(self) -> dict[str, dict[str, Any]]:
        """Per kernel: the design point with the best TMS speedup."""
        best: dict[str, tuple[float, dict[str, Any]]] = {}
        for r in self.final_results():
            for k in r.kernels:
                entry = best.get(k.kernel)
                if entry is None or k.speedup > entry[0]:
                    best[k.kernel] = (k.speedup, {
                        "params": r.params_dict,
                        "speedup": k.speedup,
                        "tms_cycles": k.tms_cycles,
                        "sms_cycles": k.sms_cycles,
                    })
        return {kernel: info
                for kernel, (_s, info) in sorted(best.items())}

    def sensitivity(self) -> dict[str, dict[str, Any]]:
        """Mean-speedup response per swept dimension value, plus the
        max-minus-min delta (the crude per-parameter sensitivity)."""
        finals = self.final_results()
        out: dict[str, dict[str, Any]] = {}
        for dim in self.space.dimensions:
            if len(dim) < 2:
                continue
            by_value: dict[str, list[float]] = {}
            for r in finals:
                value = r.params_dict.get(dim.name)
                if value is None:
                    continue
                by_value.setdefault(json.dumps(value), []).append(
                    r.mean_speedup)
            means = {v: sum(s) / len(s)
                     for v, s in sorted(by_value.items()) if s}
            if not means:
                continue
            out[dim.name] = {
                "mean_speedup_by_value": means,
                "delta": max(means.values()) - min(means.values()),
            }
        return out

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The stable, versioned report form (:data:`DSE_REPORT_SCHEMA`)."""
        return {
            "schema_version": REPORT_VERSION,
            "strategy": self.strategy,
            "seed": self.seed,
            "space": self.space.to_dict(),
            "objectives": [list(o) for o in self.objectives],
            "n_trials": len(self.results),
            "trials": [r.to_dict() for r in self.results],
            "best_configs": self.best_configs(),
            "pareto": [
                {"params": r.params_dict,
                 "objectives": {name: r.metric(name)
                                for name, _d in self.objectives}}
                for r in self.pareto()
            ],
            "sensitivity": self.sensitivity(),
        }

    def render_markdown(self) -> str:
        """Markdown report: frontier, best configs, sensitivity."""
        lines = ["# Design-space exploration report", ""]
        lines.append(f"- strategy: `{self.strategy}`  ·  seed: "
                     f"`{self.seed}`  ·  trials: {len(self.results)} "
                     f"({len(self.final_results())} design points)")
        lines.append(f"- space: `{json.dumps(self.space.to_dict())}`")
        lines.append(f"- objectives: "
                     f"{', '.join(f'{d} {n}' for n, d in self.objectives)}")
        lines += ["", "## Pareto frontier", ""]
        obj_names = [name for name, _d in self.objectives]
        lines.append("| " + " | ".join(["params"] + obj_names) + " |")
        lines.append("|" + "---|" * (1 + len(obj_names)))
        for r in self.pareto():
            cells = [f"`{json.dumps(r.params_dict)}`"] + [
                f"{r.metric(n):.4g}" for n in obj_names]
            lines.append("| " + " | ".join(cells) + " |")
        lines += ["", "## Best configuration per kernel", ""]
        lines.append("| kernel | speedup (TMS/SMS) | params |")
        lines.append("|---|---|---|")
        for kernel, info in self.best_configs().items():
            lines.append(f"| {kernel} | {info['speedup']:.3f} | "
                         f"`{json.dumps(info['params'])}` |")
        sens = self.sensitivity()
        if sens:
            lines += ["", "## Sensitivity (mean speedup vs parameter)", ""]
            lines.append("| dimension | delta | mean speedup by value |")
            lines.append("|---|---|---|")
            for name, info in sens.items():
                by_value = ", ".join(
                    f"{v}: {m:.3f}"
                    for v, m in info["mean_speedup_by_value"].items())
                lines.append(f"| {name} | {info['delta']:.3f} | "
                             f"{by_value} |")
        return "\n".join(lines) + "\n"


def write_report_json(report: SweepReport, path: str | os.PathLike) -> None:
    """Persist the versioned report dict as canonical pretty JSON."""
    write_json(report.to_dict(), path)


def validate_dse_report_dict(data: dict[str, Any]) -> None:
    """Check a report dict against :data:`DSE_REPORT_SCHEMA`; raises
    ``ValueError`` on a missing key or mistyped value.  Leaves are
    plain ``isinstance`` checks (a ``bool`` passes for an ``int``)."""
    check_versioned(data, DSE_REPORT_SCHEMA, REPORT_VERSION,
                    lists=("trials", "pareto"), strict=False)
