"""Chained replay: a run of memoised threads is one detector step.

Three configurations must give equal ``SimStats``: chains capped at one
record (each boundary then replays at most one thread, as a
replay-by-replay loop does), uncapped chains, and the reference loop
(``SimConfig(exact=True)``).
"""

from contextlib import contextmanager
from dataclasses import replace
from itertools import cycle

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ArchConfig, SimConfig
from repro.obs import metrics
from repro.sched import run_postpass, schedule_sms, schedule_tms
from repro.spmt import simulate
from repro.spmt.fastpath import SteadyStateDetector

from ..properties.test_simulator_properties import (_pipelined, archs,
                                                    oracle_shapes,
                                                    spec_probabilities)


class _EveryKey(dict):
    """A cycle index that claims every key, so a chain stops after its
    first record; ``get`` still finds only real cycle phases."""

    def __contains__(self, key):
        return True


@contextmanager
def _one_record_chains():
    init = SteadyStateDetector.__init__

    def capped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._index = _EveryKey()

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SteadyStateDetector, "__init__", capped)
        yield


@contextmanager
def _counting_attempts():
    calls = []
    attempt = SteadyStateDetector.attempt

    def counting(self, t, realisations):
        calls.append(t)
        return attempt(self, t, realisations)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(SteadyStateDetector, "attempt", counting)
        yield calls


def _three(pipelined, arch, **sim_kwargs):
    """``SimStats`` with one-record chains, with uncapped chains, and
    from the reference loop."""
    with _one_record_chains():
        capped = simulate(pipelined, arch, SimConfig(**sim_kwargs))
    chained = simulate(pipelined, arch, SimConfig(**sim_kwargs))
    exact = simulate(pipelined, arch, SimConfig(exact=True, **sim_kwargs))
    return capped, chained, exact


@pytest.fixture(params=["sms", "tms"])
def fig1_pipelined(request, fig1_ddg, fig1_machine, arch):
    sched = schedule_sms(fig1_ddg, fig1_machine) if request.param == "sms" \
        else schedule_tms(fig1_ddg, fig1_machine, arch)
    return run_postpass(sched, arch)


@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_chain_lockstep_fig1(fig1_pipelined, arch, seed):
    replayed = metrics.counter("sim.replayed_threads",
                               "threads replayed from a memoised record")
    before = replayed.value
    capped, chained, exact = _three(fig1_pipelined, arch,
                                    iterations=5000, seed=seed)
    assert capped == chained == exact
    assert exact.misspeculations > 100
    # both fast runs replayed transients (chains or single records)
    assert replayed.value - before > 500


@given(shape=oracle_shapes, tms=st.booleans(), seed=st.integers(0, 5000),
       arch=archs, n=st.integers(1, 6000),
       mixed=st.lists(spec_probabilities, max_size=3))
@settings(max_examples=30, deadline=None)
def test_chain_lockstep_random(shape, tms, seed, arch, n, mixed):
    """The differential oracle's draws (random SMS or TMS loop x arch
    grid x per-dependence probabilities), through all three
    configurations."""
    pipelined = _pipelined(shape, seed, tms)
    if mixed:
        pipelined = replace(pipelined, speculated=tuple(
            replace(e, probability=p)
            for e, p in zip(pipelined.speculated, cycle(mixed))))
    capped, chained, exact = _three(pipelined, arch, iterations=n,
                                    seed=seed)
    assert capped == chained == exact


#: detector steps per 5,000-iteration run of the motivating kernel's TMS
#: schedule: uncapped chains take 390 (seed 0xACE5) and 394 (seed 3), one
#: step per skip, chain or individually run thread; one-record chains,
#: like a loop that replays thread by thread, take 1,597 and 1,604.
MAX_ATTEMPTS = 500


@pytest.mark.parametrize("seed", [0xACE5, 3])
def test_chains_bound_detector_steps(fig1_ddg, fig1_machine, seed):
    arch = ArchConfig.paper_default()
    pipelined = run_postpass(schedule_tms(fig1_ddg, fig1_machine, arch),
                             arch)
    cfg = SimConfig(iterations=5000, seed=seed)
    with _counting_attempts() as calls:
        chained = simulate(pipelined, arch, cfg)
    assert len(calls) < MAX_ATTEMPTS
    with _counting_attempts() as calls, _one_record_chains():
        capped = simulate(pipelined, arch, cfg)
    assert len(calls) > 3 * MAX_ATTEMPTS
    assert chained == capped
