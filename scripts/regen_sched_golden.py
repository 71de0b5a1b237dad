"""Regenerate the scheduler golden file.

``tests/golden/sched_golden.json`` pins (II, slots, MaxLive, C_delay),
and for TMS the C_delay threshold, ``F`` and ``P_M`` meta too, for every
scheduler on every paper kernel (the table2 synthetic SPECfp
populations at the CI ``--quick`` cap, the table3 DOACROSS loops — which
fig5/fig6 reuse — and the motivating example).  The golden-equivalence
tests in ``tests/test_engine_invariants.py`` diff the live schedulers
against this file, so any placement or ``P_M`` change — intended or
not — shows up as a review-able diff of this file, not a silent drift.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/regen_sched_golden.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: population cap matching the CI --quick runs; a constant, so the golden
#: file stays stable.
MAX_LOOPS = 4


def _kernels():
    """(benchmark, kernel-name, ddg, resources, arch) for every golden
    kernel."""
    from repro.config import ArchConfig
    from repro.experiments.validate import suite_loops
    from repro.graph import build_ddg
    from repro.machine import LatencyModel, ResourceModel
    from repro.workloads.motivating import motivating_ddg, motivating_machine

    arch = ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    out = []
    for benchmark, loop in suite_loops(("table2", "table3"), MAX_LOOPS):
        out.append((benchmark, loop.name, build_ddg(loop, latency),
                    resources, arch))
    out.append(("motivating", "motivating", motivating_ddg(),
                motivating_machine(), arch))
    return out


def capture_golden() -> dict:
    """Schedule every golden kernel with every scheduler; return the
    golden dict."""
    from repro.costmodel.exectime import achieved_c_delay
    from repro.sched import (max_live, schedule_ims, schedule_sms,
                             schedule_tms)

    rows = []
    for benchmark, name, ddg, resources, arch in _kernels():
        for alg, build in (
                ("SMS", lambda: schedule_sms(ddg, resources)),
                ("IMS", lambda: schedule_ims(ddg, resources)),
                ("TMS", lambda: schedule_tms(ddg, resources, arch))):
            sched = build()
            row = {
                "benchmark": benchmark,
                "kernel": name,
                "alg": alg,
                "ii": sched.ii,
                "slots": dict(sorted(sched.slots.items())),
                "max_live": max_live(sched),
                "c_delay": achieved_c_delay(sched, arch),
            }
            if alg == "TMS":
                row["c_delay_threshold"] = sched.meta["c_delay_threshold"]
                row["objective_f"] = sched.meta["objective_f"]
                row["p_m"] = sched.meta["p_m"]
            rows.append(row)
    return {"max_loops": MAX_LOOPS, "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out",
                        default=REPO / "tests" / "golden" /
                        "sched_golden.json")
    args = parser.parse_args()

    golden = capture_golden()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"[golden: {len(golden['rows'])} rows -> {out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
