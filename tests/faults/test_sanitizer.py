"""Trace invariant sanitizer: clean runs pass, corrupted streams are
caught — one test per seeded corruption class."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import SimConfig
from repro.errors import InvariantViolation
from repro.faults import FaultInjectingSimulator, FaultPlan, FaultSpec, \
    assert_trace_invariants, sanitize_events
from repro.obs.telemetry import Telemetry
from repro.sched import run_postpass, schedule_sms
from repro.spmt.sim import SpMTSimulator


@pytest.fixture
def pipelined(fig1_ddg, fig1_machine, arch):
    return run_postpass(schedule_sms(fig1_ddg, fig1_machine), arch)


def _traced(simulator):
    with Telemetry(events=True) as traced:
        stats = simulator.run()
        return stats, list(traced.tracer.events)


@pytest.fixture
def clean_run(pipelined, arch):
    return _traced(SpMTSimulator(pipelined, arch,
                                 SimConfig(iterations=60, seed=3)))


@pytest.fixture
def faulted_run(pipelined, arch):
    plan = FaultPlan(seed=9, specs=(
        FaultSpec("violation", probability=0.5, every=3),))
    stats, evts = _traced(FaultInjectingSimulator(
        pipelined, arch, SimConfig(iterations=60, seed=3), plan=plan))
    assert any(e.name == "squash" for e in evts)
    return stats, evts


def _replace_one(evts, pred, **changes):
    """Copy of ``evts`` with the first event matching ``pred`` mutated."""
    out = list(evts)
    for i, e in enumerate(out):
        if pred(e):
            args = dict(e.args)
            args.update(changes.pop("args_update", {}))
            out[i] = dataclasses.replace(e, args=args, **changes)
            return out
    raise AssertionError("no event matched the corruption predicate")


def _invariants(findings):
    return {f.invariant for f in findings}


# -- clean behaviour ---------------------------------------------------------

def test_clean_run_sanitizes(clean_run, arch):
    stats, evts = clean_run
    assert sanitize_events(evts, arch, stats=stats) == []
    assert_trace_invariants(evts, arch, stats=stats)  # must not raise


def test_faulted_run_still_sanitizes(faulted_run, arch):
    """The injector only delays events or adds violations; every model
    invariant must survive a squash storm."""
    stats, evts = faulted_run
    assert sanitize_events(evts, arch, stats=stats) == []


# -- seeded corruptions: each must be detected -------------------------------

def test_detects_commit_order_swap(clean_run, arch):
    stats, evts = clean_run
    corrupted = _replace_one(
        evts, lambda e: e.name == "commit" and e.args["thread"] == 3,
        args_update={"thread": 5})
    findings = sanitize_events(corrupted, arch)
    assert "commit-order" in _invariants(findings)


def test_detects_negative_timestamp(clean_run, arch):
    _stats, evts = clean_run
    corrupted = _replace_one(
        evts, lambda e: e.name == "exec" and e.args["thread"] == 2,
        ts=-10.0)
    assert "clock-monotone" in _invariants(sanitize_events(corrupted, arch))


def test_detects_negative_duration(clean_run, arch):
    _stats, evts = clean_run
    corrupted = _replace_one(evts, lambda e: e.name == "commit", dur=-1.0)
    assert "clock-monotone" in _invariants(sanitize_events(corrupted, arch))


def test_detects_exec_before_core_free(clean_run, arch):
    _stats, evts = clean_run
    # a thread >= ncore claims to start at t=0, before its core's
    # previous occupant committed
    corrupted = _replace_one(
        evts,
        lambda e: e.name == "exec" and e.args["thread"] == arch.ncore + 1,
        ts=0.0)
    assert "clock-monotone" in _invariants(sanitize_events(corrupted, arch))


def test_detects_missing_send(clean_run, arch):
    _stats, evts = clean_run
    stalls = [e for e in evts if e.name == "recv_stall"
              and e.args["thread"] - e.args["hops"] >= 0]
    assert stalls, "expected at least one cross-thread recv stall"
    victim = stalls[0]
    corrupted = [e for e in evts
                 if not (e.name == "send"
                         and e.args["thread"] == victim.args["thread"]
                         - victim.args["hops"]
                         and e.args["channel"] == victim.args["channel"])]
    assert len(corrupted) < len(evts)
    assert "send-recv-order" in _invariants(sanitize_events(corrupted, arch))


def test_detects_recv_before_send(clean_run, arch):
    _stats, evts = clean_run
    stalls = [e for e in evts if e.name == "recv_stall"
              and e.args["thread"] - e.args["hops"] >= 0]
    assert stalls
    victim = stalls[0]
    corrupted = _replace_one(
        evts, lambda e: e is victim, ts=0.0, dur=0.0)
    assert "send-recv-order" in _invariants(sanitize_events(corrupted, arch))


def test_detects_oversized_squash(faulted_run, arch):
    _stats, evts = faulted_run
    corrupted = _replace_one(
        evts, lambda e: e.name == "squash",
        args_update={"squashed": arch.ncore + 3})
    assert "squash-scope" in _invariants(sanitize_events(corrupted, arch))


def test_detects_squash_without_violation(faulted_run, arch):
    _stats, evts = faulted_run
    first_violation = next(e for e in evts if e.name == "violation")
    corrupted = [e for e in evts if e is not first_violation]
    assert "squash-scope" in _invariants(sanitize_events(corrupted, arch))


def test_detects_total_cycles_tampering(clean_run, arch):
    stats, evts = clean_run
    tampered = dataclasses.replace(stats, total_cycles=stats.total_cycles + 1)
    findings = sanitize_events(evts, arch, stats=tampered)
    assert "conservation" in _invariants(findings)


def test_detects_spawn_accounting_tampering(clean_run, arch):
    stats, evts = clean_run
    tampered = dataclasses.replace(stats, spawn_cycles=stats.spawn_cycles - 1)
    assert "conservation" in _invariants(
        sanitize_events(evts, arch, stats=tampered))


def test_assert_raises_with_detail(clean_run, arch):
    stats, evts = clean_run
    tampered = dataclasses.replace(stats, total_cycles=-1.0)
    with pytest.raises(InvariantViolation, match="conservation"):
        assert_trace_invariants(evts, arch, stats=tampered)
