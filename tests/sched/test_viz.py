"""ASCII visualisations."""

import pytest

from repro.config import SimConfig
from repro.obs.telemetry import Telemetry
from repro.sched import (
    flat_schedule_chart,
    kernel_gantt,
    run_postpass,
    schedule_sms,
    thread_timeline,
)
from repro.spmt import simulate


@pytest.fixture
def sched(fig1_ddg, fig1_machine):
    return schedule_sms(fig1_ddg, fig1_machine)


def test_kernel_gantt(sched, fig1_ddg):
    text = kernel_gantt(sched)
    assert f"II={sched.ii}" in text
    for name in fig1_ddg.node_names:
        assert name in text
    assert len([l for l in text.splitlines() if l.startswith(" ")]) >= sched.ii


def test_flat_chart(sched):
    text = flat_schedule_chart(sched)
    assert "#" in text and "span=" in text


def test_thread_timeline(sched, arch):
    with Telemetry(events=True) as traced:
        simulate(run_postpass(sched, arch), arch, SimConfig(iterations=12))
    text = thread_timeline(traced.tracer.events, arch.ncore)
    assert "t0" in text and "=" in text
    assert len(text.splitlines()) == 1 + 12


def test_thread_timeline_empty():
    assert "no thread records" in thread_timeline([], 4)
