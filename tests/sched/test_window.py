"""Scheduling-window computation."""

from repro.graph.paths import compute_metrics

from .oracle import SchedulingWindow, compute_window


def test_pred_only_window(axpy_ddg):
    m = compute_metrics(axpy_ddg)
    w = compute_window(axpy_ddg, "n1", {"n0": 0}, 8, m)
    assert (w.start, w.end, w.direction) == (3, 10, "up")


def test_succ_only_window_scans_down(axpy_ddg):
    m = compute_metrics(axpy_ddg)
    w = compute_window(axpy_ddg, "n1", {"n3": 10}, 8, m)
    # Lstart = 10 - lat(n1) = 6
    assert (w.start, w.end, w.direction) == (-1, 6, "down")
    assert w.candidates()[0] == 6


def test_both_window_topdown(axpy_ddg):
    m = compute_metrics(axpy_ddg)
    w = compute_window(axpy_ddg, "n1", {"n0": 0, "n3": 20}, 8, m, "top-down")
    assert w.direction == "up"
    assert w.start == 3


def test_both_window_bottomup(axpy_ddg):
    m = compute_metrics(axpy_ddg)
    w = compute_window(axpy_ddg, "n1", {"n0": 0, "n3": 20}, 8, m, "bottom-up")
    assert w.direction == "down"
    assert w.end == 16
    assert w.start >= 3 + 20 - 8 - 8  # within II of Lstart, above Estart


def test_loop_carried_pred(fig1_ddg):
    m = compute_metrics(fig1_ddg)
    # n0's pred n5 via memory dep d=1: Estart = slot(n5) + 1 - II
    w = compute_window(fig1_ddg, "n0", {"n5": 7}, 8, m)
    assert w.start == 0


def test_unconstrained_window_uses_asap(axpy_ddg):
    m = compute_metrics(axpy_ddg)
    w = compute_window(axpy_ddg, "n3", {}, 8, m)
    assert (w.start, w.end, w.direction) == (7, 14, "up")
    w2 = compute_window(axpy_ddg, "n3", {}, 8, m, seed_high=True)
    assert w2.direction == "down"


def test_empty_window():
    w = SchedulingWindow(5, 3, "up")
    assert w.empty and w.candidates() == []
