"""Section 5.2 speculation ablation."""

import pytest

from repro.experiments import run_speculation, render_speculation


@pytest.fixture(scope="module")
def rows():
    return run_speculation(iterations=400, benchmarks=["equake", "fma3d"])


def test_speculation_helps(rows):
    for r in rows:
        assert r.speedup_with_spec > r.speedup_without_spec, r.loop


def test_gain_reduction_positive(rows):
    # paper: equake and fma3d lose double-digit fractions of their gain
    for r in rows:
        assert r.gain_reduction > 0.1, r.loop


def test_misspec_frequency_below_paper_bound(rows):
    for r in rows:
        assert r.misspec_frequency < 0.001  # paper: < 0.1%


def test_render(rows):
    assert "equake" in render_speculation(rows)
