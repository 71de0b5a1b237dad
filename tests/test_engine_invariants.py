"""Engine invariants and golden schedule equivalence.

Two safety nets around the unified placement engine:

* **Invariants** — every schedule any policy produces respects the
  machine (per-row FU capacity and issue width, reservation occupancy)
  and the dependence algebra (``slot(dst) >= slot(src) + delay -
  II*distance``), and TMS schedules honour their own acceptance
  conditions (achieved ``C_delay`` within threshold, kernel
  misspeculation within ``P_max``) unless they record the SMS fallback.

* **Golden equivalence** — the engine's schedules are byte-identical
  to ``tests/golden/sched_golden.json`` in whole rows: II, slots,
  MaxLive and C_delay, and for TMS also the ``C_delay`` threshold, the
  objective ``F`` and ``P_M`` (so a change to ``P_M`` alone fails it
  too).  Regenerate only for an *intended* change, via
  ``scripts/regen_sched_golden.py``, and review the diff.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.config import ArchConfig
from repro.costmodel.exectime import achieved_c_delay
from repro.machine import LatencyModel, ResourceModel

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "sched_golden.json"


def _load_regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_sched_golden", REPO / "scripts" / "regen_sched_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _invariant_kernels():
    from repro.experiments.validate import suite_loops
    from repro.graph import build_ddg
    from repro.workloads.motivating import motivating_ddg, motivating_machine

    arch = ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)
    out = [(build_ddg(loop, latency), resources, arch)
           for _b, loop in suite_loops(("table3",), 4)]
    out.append((motivating_ddg(), motivating_machine(), arch))
    return out


def _check_machine_invariants(sched, resources):
    """Per-row FU usage within capacity x occupancy; issue width held;
    every dependence satisfied mod II."""
    ii = sched.ii
    issue_use = [0] * ii
    fu_use: dict[tuple[int, object], int] = {}
    for node in sched.ddg.nodes:
        cycle = sched.slot(node.name)
        issue_use[cycle % ii] += 1
        spec = resources.spec(node.opcode.fu_class)
        for k in range(min(spec.occupancy, ii)):
            key = ((cycle + k) % ii, node.opcode.fu_class)
            fu_use[key] = fu_use.get(key, 0) + 1
    for row in range(ii):
        assert issue_use[row] <= resources.issue_width, \
            f"{sched.ddg.name}: issue row {row} over width"
    for (row, fu), used in fu_use.items():
        assert used <= resources.spec(fu).count, \
            f"{sched.ddg.name}: {fu} over capacity in row {row}"
    for e in sched.ddg.edges:
        assert sched.slot(e.dst) >= \
            sched.slot(e.src) + e.delay - ii * e.distance, \
            f"{sched.ddg.name}: dependence {e} violated"


@pytest.mark.parametrize("alg", ["sms", "ims", "tms", "seq"])
def test_every_policy_respects_machine_and_dependences(alg):
    from repro.sched import schedule_with_policy

    for ddg, resources, arch in _invariant_kernels():
        sched = schedule_with_policy(ddg, resources, arch, alg)
        assert sched.meta["policy"] == alg
        _check_machine_invariants(sched, resources)


def test_tms_honours_c1_and_c2():
    """Non-fallback TMS schedules achieve a sync delay within their own
    C_delay threshold (C1) and a kernel misspeculation probability within
    P_max (C2)."""
    from repro.sched import schedule_tms

    checked = 0
    for ddg, resources, arch in _invariant_kernels():
        sched = schedule_tms(ddg, resources, arch)
        if sched.meta.get("fallback"):
            continue
        checked += 1
        assert achieved_c_delay(sched, arch) <= \
            sched.meta["c_delay_threshold"] + 1e-9, ddg.name
        assert sched.meta["p_m"] <= sched.meta["p_max"] + 1e-9, ddg.name
    assert checked > 0, "no non-fallback TMS schedule to check"


def test_golden_equivalence():
    """Every scheduler reproduces the pre-engine golden file exactly:
    same II, same slots, same MaxLive, same C_delay on every table2,
    table3 and motivating kernel."""
    golden = json.loads(GOLDEN.read_text())
    current = _load_regen_module().capture_golden()
    assert current["max_loops"] == golden["max_loops"]
    gold_rows = {(r["kernel"], r["alg"]): r for r in golden["rows"]}
    cur_rows = {(r["kernel"], r["alg"]): r for r in current["rows"]}
    assert set(cur_rows) == set(gold_rows)
    mismatched = [key for key in gold_rows if cur_rows[key] != gold_rows[key]]
    assert not mismatched, \
        f"{len(mismatched)} schedules diverge from the golden file " \
        f"(first: {mismatched[0]}); if the placement change is intended, " \
        f"regenerate via scripts/regen_sched_golden.py and review the diff"
