"""Golden simulation equivalence: the committed differential oracle.

``tests/golden/sim_golden.json`` was captured through the **reference
event loop** (``SimConfig(exact=True)``); this test replays every pinned
kernel through the **default** memoised/fast-forward path and demands
byte-identical :meth:`SimStats.to_dict` rows.  Any fidelity drift in the
steady-state fast path — or any intended change to the simulator's cost
model — therefore surfaces as a review-able diff of the golden file
(regenerate via ``scripts/regen_sim_golden.py``), never as silent
corruption of the paper's numbers.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden" / "sim_golden.json"


def _load_regen_module():
    spec = importlib.util.spec_from_file_location(
        "regen_sim_golden", REPO / "scripts" / "regen_sim_golden.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_sim_golden_equivalence():
    from repro.config import SimConfig
    from repro.spmt import simulate

    golden = json.loads(GOLDEN.read_text())
    regen = _load_regen_module()
    assert golden["max_loops"] == regen.MAX_LOOPS
    assert golden["iterations"] == regen.ITERATIONS
    assert golden["seed"] == regen.SEED
    gold_rows = {(r["kernel"], r["alg"]): r for r in golden["rows"]}
    cfg = SimConfig(iterations=regen.ITERATIONS, seed=regen.SEED)

    cur_rows = {}
    for benchmark, name, alg, pipelined, arch in regen._pipelined_kernels():
        row = {"benchmark": benchmark, "kernel": name, "alg": alg}
        row.update(simulate(pipelined, arch, cfg).to_dict())
        cur_rows[(name, alg)] = row

    assert set(cur_rows) == set(gold_rows)
    mismatched = [key for key in gold_rows if cur_rows[key] != gold_rows[key]]
    assert not mismatched, \
        f"{len(mismatched)} simulations diverge from the golden file " \
        f"(first: {mismatched[0]}); the pins were captured with " \
        f"SimConfig(exact=True), so a mismatch here means the fast path " \
        f"drifted from the reference loop — or, if the cost-model change " \
        f"is intended, regenerate via scripts/regen_sim_golden.py and " \
        f"review the diff"
