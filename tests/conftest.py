"""Shared fixtures: architectures, machines, reference loops, and a
fresh telemetry context per test.

Also installs a repo-wide per-test wall-clock timeout (SIGALRM-based, no
plugin dependency): any single test exceeding ``REPRO_TEST_TIMEOUT``
seconds (default 120) fails with a clear message instead of hanging the
suite.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.config import ArchConfig, SchedulerConfig, SimConfig
from repro.graph import build_ddg
from repro.ir import parse_loop
from repro.machine import LatencyModel, ResourceModel
from repro.obs.telemetry import Telemetry
from repro.workloads import motivating_ddg, motivating_latency, motivating_loop, motivating_machine

AXPY_SRC = """
loop axpy
array X 64
array Y 64
livein a 2.0
livein s 0.0
n0: x = load X[i]
n1: t = fmul x, a
n2: y = load Y[i]
n3: r = fadd t, y
n4: store Y[i], r
n5: s = fadd s, r
"""

#: a loop with an exact distance-2 memory recurrence and a counter
RECURRENT_SRC = """
loop recur
array A 128
array B 128
livein acc 1.0
livein k 3.0
n0: v = load A[i]
n1: w = fmul v, 1.5
n2: store A[i+2], w
n3: acc = fadd acc, w
n4: u = load B[k]
n5: z = fadd u, acc
n6: store B[i], z
n7: k = iadd k, 5
"""


_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "120"))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Per-test wall-clock timeout via SIGALRM (main thread, POSIX only;
    elsewhere the hook is a no-op and tests run unbounded)."""
    usable = (
        _TEST_TIMEOUT > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded REPRO_TEST_TIMEOUT={_TEST_TIMEOUT:.0f}s: "
            f"{item.nodeid}")

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def telemetry():
    """A fresh telemetry context (events and detail spans on), installed
    for the test and uninstalled after it."""
    with Telemetry(events=True, spans=True, detail=True) as context:
        yield context

@pytest.fixture
def registry(telemetry):
    return telemetry.registry

@pytest.fixture
def tracer(telemetry):
    return telemetry.tracer

@pytest.fixture
def span_tracer(telemetry):
    return telemetry.spans

@pytest.fixture
def arch() -> ArchConfig:
    return ArchConfig.paper_default()

@pytest.fixture
def single_core_arch() -> ArchConfig:
    return ArchConfig.single_core()

@pytest.fixture
def resources() -> ResourceModel:
    return ResourceModel.default()

@pytest.fixture
def latency(arch) -> LatencyModel:
    return LatencyModel.for_arch(arch)

@pytest.fixture
def sched_config() -> SchedulerConfig:
    return SchedulerConfig()

@pytest.fixture
def sim_config() -> SimConfig:
    return SimConfig(iterations=200, seed=7)

@pytest.fixture
def axpy_loop():
    return parse_loop(AXPY_SRC)

@pytest.fixture
def axpy_ddg(axpy_loop, latency):
    return build_ddg(axpy_loop, latency)

@pytest.fixture
def recurrent_loop():
    return parse_loop(RECURRENT_SRC)

@pytest.fixture
def recurrent_ddg(recurrent_loop, latency):
    return build_ddg(recurrent_loop, latency)

@pytest.fixture
def fig1_loop():
    return motivating_loop()

@pytest.fixture
def fig1_ddg():
    return motivating_ddg()

@pytest.fixture
def fig1_machine():
    return motivating_machine()

@pytest.fixture
def fig1_latency():
    return motivating_latency()
