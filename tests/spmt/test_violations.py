"""Speculated-dependence realisation and detection."""

import pytest

from repro.sched import run_postpass, schedule_sms
from repro.spmt.channels import KernelTimingTemplate, ThreadTiming
from repro.spmt.violations import RealisationTable, detect_violation


@pytest.fixture
def template(fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    return KernelTimingTemplate(run_postpass(sched, arch), arch.reg_comm_latency)


def test_realisations_deterministic(template):
    t1 = RealisationTable(template, seed=42)
    t2 = RealisationTable(template, seed=42)
    for j in range(32):
        assert t1.realised(j) == t2.realised(j)


def test_realisations_sticky(template):
    """A re-executed thread sees the draws of its first execution."""
    table = RealisationTable(template, seed=1)
    first = table.realised(5)
    table.realised(6)
    assert table.realised(5) == first


def test_realisation_rate_tracks_probability(template):
    table = RealisationTable(template, seed=3)
    n = 4000
    counts = [0] * len(template.speculated)
    for j in range(n):
        for i, hit in enumerate(table.realised(j)):
            counts[i] += hit
    for count, (_x, _y, _k, p) in zip(counts, template.speculated):
        assert count / n == pytest.approx(p, abs=0.01)


def test_violation_detection(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    # thread 1 starts immediately: its row-0 loads issue before thread 0's
    # store (row 7) completes -> violated if the dependence manifests
    timings[1] = ThreadTiming.resolve(template, 1.0, no_arrivals)
    realised = tuple(True for _ in template.speculated)
    hit = detect_violation(template, timings, realised, 1)
    assert hit is not None
    _idx, detected = hit
    assert detected == pytest.approx(
        timings[0].completion_time(template, "n5"))


def test_no_violation_when_spaced(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    timings[1] = ThreadTiming.resolve(template, 100.0, no_arrivals)
    realised = tuple(True for _ in template.speculated)
    assert detect_violation(template, timings, realised, 1) is None


def test_unrealised_never_violates(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    timings[1] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    realised = tuple(False for _ in template.speculated)
    assert detect_violation(template, timings, realised, 1) is None
