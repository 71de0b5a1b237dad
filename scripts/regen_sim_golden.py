"""Regenerate the simulator golden file.

``tests/golden/sim_golden.json`` pins :meth:`SimStats.to_dict` for the
SMS and TMS schedules of every paper kernel (table2 synthetic SPECfp at
the CI ``--quick`` cap plus the table3 DOACROSS loops) at a fixed
iteration count and seed.  The stats are captured through the
**reference event loop** (``SimConfig(exact=True)``), so the golden
test — which simulates through the default memoised/fast-forward
path — doubles as a committed differential oracle: any fidelity drift
in the fast path shows up as a review-able diff of this file, never as
silent corruption.

Usage (from the repo root)::

    PYTHONPATH=src python scripts/regen_sim_golden.py
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: population cap matching the CI --quick runs; REPRO_FULL-style overrides
#: are deliberately not honoured — the golden file must be stable.
MAX_LOOPS = 4

#: enough iterations that every steady kernel fast-forwards, small enough
#: that the exact reference capture stays fast.
ITERATIONS = 2000
SEED = 0xACE5


def _pipelined_kernels():
    """(benchmark, kernel, alg, pipelined, arch) for every golden kernel."""
    from repro.config import ArchConfig
    from repro.experiments.validate import suite_loops
    from repro.graph import build_ddg
    from repro.machine import LatencyModel, ResourceModel
    from repro.sched import run_postpass, schedule_sms, schedule_tms

    arch = ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    out = []
    for benchmark, loop in suite_loops(("table2", "table3"), MAX_LOOPS):
        ddg = build_ddg(loop, latency)
        for alg, sched in (("SMS", schedule_sms(ddg, resources)),
                           ("TMS", schedule_tms(ddg, resources, arch))):
            out.append((benchmark, loop.name, alg,
                        run_postpass(sched, arch), arch))
    return out


def capture_golden() -> dict:
    """Simulate every golden kernel through the reference loop; return
    the golden dict."""
    from repro.config import SimConfig
    from repro.spmt import simulate

    rows = []
    for benchmark, name, alg, pipelined, arch in _pipelined_kernels():
        stats = simulate(pipelined, arch,
                         SimConfig(iterations=ITERATIONS, seed=SEED,
                                   exact=True))
        row = {"benchmark": benchmark, "kernel": name, "alg": alg}
        row.update(stats.to_dict())
        rows.append(row)
    return {"max_loops": MAX_LOOPS, "iterations": ITERATIONS, "seed": SEED,
            "rows": rows}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out",
                        default=REPO / "tests" / "golden" /
                        "sim_golden.json")
    args = parser.parse_args()

    golden = capture_golden()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"[golden: {len(golden['rows'])} rows -> {out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
