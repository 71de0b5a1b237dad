"""Self-tests of the benchmark: the output checks catch corrupted outputs,
the printed metrics match BENCHMARK.json, and a tiny run of every workload
completes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import time

import pytest

from perfbench import checks, compile_cold, serve, simulate
from perfbench.harness import (END_TO_END, MOVES, PER_LAYER, ROOT, SPEC,
                               result_line)
from perfbench.hostclock import HostClock
from perfbench.run import WORKLOADS
from perfbench.inputs import SIM_ITERATIONS, SIM_SEED, population

#: a few cheap golden kernels: two synthetic loops and one DOACROSS loop
TINY = ("wupwise_loop0", "swim_loop1", "art_winner")


@pytest.fixture(scope="module")
def tiny_pairs():
    return [(b, loop) for b, loop in population(0) if loop.name in TINY]


@pytest.fixture(scope="module")
def compiled(tiny_pairs):
    from repro.session import Session
    session = Session(jobs=1)
    return {loop.name: (loop, session.compile(loop))
            for _b, loop in tiny_pairs}


@pytest.fixture(scope="module")
def resources():
    from repro.config import ArchConfig
    from repro.machine import ResourceModel
    return ResourceModel.default(ArchConfig.paper_default().issue_width)


def test_tiny_population_is_golden(compiled, resources):
    records = {name: checks.schedule_record(c)
               for name, (_loop, c) in compiled.items()}
    assert checks.check_sched_golden(records) == []
    for name, (loop, c) in compiled.items():
        for alg in ("sms", "tms"):
            assert checks.check_schedule(loop, name, getattr(c, alg),
                                         resources) == []


def test_moved_slot_fails_the_checks(compiled, resources):
    from repro.sched import Schedule

    loop, c = compiled["art_winner"]
    good = c.sms.schedule
    slots = dict(good.slots)
    victim = max(slots, key=lambda n: slots[n])
    slots[victim] = 0            # yank the last instruction to cycle 0
    bad = Schedule(good.ddg, good.ii, slots)

    class Corrupt:
        schedule = bad
    assert checks.check_schedule(loop, "art_winner/SMS", Corrupt,
                                 resources) != []
    records = {name: checks.schedule_record(c)
               for name, (_loop, c) in compiled.items()}
    records["art_winner"]["SMS"]["slots"] = dict(sorted(slots.items()))
    assert checks.check_sched_golden(records) != []


@pytest.mark.parametrize("field", ["total_cycles", "misspeculations",
                                   "sync_stall_cycles"])
def test_perturbed_simstats_fail_the_golden_check(compiled, field):
    from repro.session import Session

    _loop, c = compiled["wupwise_loop0"]
    stats = Session(jobs=1).simulate(c.tms, iterations=SIM_ITERATIONS,
                                     seed=SIM_SEED).to_dict()
    assert checks.check_sim_golden({"wupwise_loop0/TMS": stats}) == []
    stats[field] += 1
    assert checks.check_sim_golden({"wupwise_loop0/TMS": stats}) != []


def test_host_clock_is_additive_and_skips_its_own_samples():
    with HostClock(period=0.002) as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            sum(range(1000))
        t1 = time.perf_counter()
        time.sleep(0.05)
        t2 = time.perf_counter()
    assert clock.speed()["samples"] > 10
    assert clock.seconds(t0, t1) > 0 and clock.seconds(t1, t2) > 0
    assert clock.seconds(t0, t2) == pytest.approx(
        clock.seconds(t0, t1) + clock.seconds(t1, t2))
    # a sample's own CPU time counts as zero
    inside = [clock.seconds(t0, t1) / (t1 - t0)
              for t0, t1 in zip(clock._starts, clock._ends)]
    assert statistics.median(inside) < 0.1
    with pytest.raises(RuntimeError):
        HostClock().seconds(t0, t1)


def test_every_declared_metric_and_workload_is_known():
    assert set(MOVES) == set(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _assert_clean(res, table):
    assert res["errors"] == [] and res["failures"] == []
    line = json.loads(result_line(True, res["attempted"], 0,
                                  res["metrics"], table))
    assert {n: m["unit"] for n, m in line["metrics"].items()} == \
        {n: spec["unit"] for n, spec in table.items()}
    return line


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_compile_cold_and_simulate_runs(tiny_pairs, trace):
    table = PER_LAYER if trace else END_TO_END
    for workload in (compile_cold, simulate):
        res = workload.run(0, 0.0, trace, pairs=tiny_pairs, min_ops=1)
        line = _assert_clean(res, table)
        assert line["attempted"] >= len(tiny_pairs)
        if not trace:
            assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("trace", [False, True])
def test_tiny_serve_run(trace):
    res = serve.run(0, 0.5, trace, min_ops=5)
    _assert_clean(res, PER_LAYER if trace else END_TO_END)
    if trace:
        assert res["metrics"]["ir.parse_s"] > 0


def test_serve_digest_does_not_depend_on_run_length():
    short = serve.run(3, 0.0, False, min_ops=20)
    long = serve.run(3, 1.0, False, min_ops=20)
    assert long["attempted"] > short["attempted"]
    assert long["digest"] == short["digest"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
