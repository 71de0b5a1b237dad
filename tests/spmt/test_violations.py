"""Speculated-dependence realisation and detection."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.sched import run_postpass, schedule_sms
from repro.spmt.channels import KernelTimingTemplate, ThreadTiming
from repro.spmt.violations import RealisationTable, detect_violation


#: a realisation mask with every dependence manifest
_ALL = -1


def _bits(draws):
    return sum(1 << i for i, hit in enumerate(draws) if hit)


@pytest.fixture
def template(fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine)
    return KernelTimingTemplate(run_postpass(sched, arch), arch.reg_comm_latency)


def test_realisations_deterministic(template):
    t1 = RealisationTable(template, seed=42)
    t2 = RealisationTable(template, seed=42)
    for j in range(32):
        assert t1.mask(j) == t2.mask(j)


def test_realisations_sticky(template):
    """A re-executed thread sees the draws of its first execution."""
    table = RealisationTable(template, seed=1)
    first = table.mask(5)
    table.mask(6)
    assert table.mask(5) == first


def test_read_before_the_held_chunks_raises():
    """A thread whose draws were dropped is never redrawn: reading it
    raises, and the threads after it keep their own draws.  (A table
    that drew such a read fresh would hand it its successor's draws and
    shift every later thread's by one.)"""
    coin_flips = SimpleNamespace(speculated=[("x", "y", 1, 0.5)] * 6)
    rng = np.random.default_rng(11)
    expected = [_bits(rng.random(6) < 0.5) for _ in range(4101)]
    table = RealisationTable(coin_flips, seed=11)
    assert table.mask(0) == expected[0]
    assert table.mask(4096) == expected[4096]   # drops threads < 2048
    for read in (table.mask, table.chunk):
        with pytest.raises(IndexError, match="thread 0's realisation"):
            read(0)
    assert [table.mask(j) for j in range(4097, 4101)] == expected[4097:]


def test_masks_have_no_width_cap():
    """A thread's bitmask holds every dependence, past 64 of them."""
    wide = SimpleNamespace(speculated=[("x", "y", 1, 0.5)] * 130)
    rng = np.random.default_rng(5)
    table = RealisationTable(wide, seed=5, n=8)
    for j in range(20):
        assert table.mask(j) == _bits(rng.random(130) < 0.5)
    assert table.mask(19).bit_length() > 64


def test_realisation_rate_tracks_probability(template):
    table = RealisationTable(template, seed=3)
    n = 4000
    counts = [0] * len(template.speculated)
    for j in range(n):
        mask = table.mask(j)
        for i in range(len(counts)):
            counts[i] += mask >> i & 1
    for count, (_x, _y, _k, p) in zip(counts, template.speculated):
        assert count / n == pytest.approx(p, abs=0.01)


def test_violation_detection(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    # thread 1 starts immediately: its row-0 loads issue before thread 0's
    # store (row 7) completes -> violated if the dependence manifests
    timings[1] = ThreadTiming.resolve(template, 1.0, no_arrivals)
    hit = detect_violation(template, timings, _ALL, 1)
    assert hit is not None
    _idx, detected = hit
    assert detected == pytest.approx(
        timings[0].completion_time(template, "n5"))


def test_no_violation_when_spaced(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    timings[1] = ThreadTiming.resolve(template, 100.0, no_arrivals)
    assert detect_violation(template, timings, _ALL, 1) is None


def test_unrealised_never_violates(template):
    timings = {}
    no_arrivals = [float("-inf")] * len(template.channels)
    timings[0] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    timings[1] = ThreadTiming.resolve(template, 0.0, no_arrivals)
    assert detect_violation(template, timings, 0, 1) is None
