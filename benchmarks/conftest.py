"""Benchmark harness configuration.

Each bench regenerates one of the paper's tables/figures and prints it
(run with ``-s`` to see the output).  Populations and trip counts default
to laptop-quick settings; set ``REPRO_FULL=1`` for the full 778-loop suite
and paper-scale trip counts.

All benches route through the process-wide :class:`repro.session.Session`,
so the environment knobs the session layer honours apply here too:

* ``REPRO_CACHE_DIR=/path`` — persist compiled artifacts on disk; a warm
  rerun of the whole bench suite recompiles nothing (the session-scoped
  fixtures below already share one compilation of Table 2 / Table 3
  within a run even without it).
* ``REPRO_JOBS=N`` — fan compilations/simulations out over ``N`` worker
  processes (``-1`` = all cores); result ordering stays deterministic.

    pytest benchmarks/ --benchmark-only
    REPRO_FULL=1 pytest benchmarks/ --benchmark-only -s
    REPRO_FULL=1 REPRO_JOBS=-1 REPRO_CACHE_DIR=~/.cache/repro \\
        pytest benchmarks/ --benchmark-only -s
"""

import os

import pytest


FULL = os.environ.get("REPRO_FULL", "") == "1"

#: per-benchmark loop-population cap (None = all loops)
MAX_LOOPS = None if FULL else 4
#: simulated trip count for suite experiments
SUITE_ITERATIONS = 1000 if FULL else 200
#: simulated trip count for the selected DOACROSS loops
LOOP_ITERATIONS = 2000 if FULL else 500


@pytest.fixture(scope="session")
def repro_session():
    """The process session the benches compile through (shared cache)."""
    from repro.session import get_session
    return get_session()


@pytest.fixture(scope="session")
def table2_rows(repro_session):
    from repro.experiments import run_table2
    return run_table2(max_loops=MAX_LOOPS, session=repro_session)


@pytest.fixture(scope="session")
def table3_rows(repro_session):
    from repro.experiments import run_table3
    return run_table3(session=repro_session)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the session's compile/cache counters after a bench run."""
    try:
        from repro.session import get_session
        terminalreporter.write_line(get_session().report())
    except Exception:
        pass
