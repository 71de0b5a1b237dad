"""The headline cross-process telemetry guarantee: a same-seed batch run
under ``jobs=4`` produces byte-identical telemetry to ``jobs=1``.

Each run records into a fresh telemetry context; the parallel run's
workers record into fresh contexts of their own and the runner merges
their snapshots back in submission order, so the merged metric totals
(``deterministic_totals``), the JSONL event export, and the normalized
span tree must all match the sequential run exactly.
"""

from __future__ import annotations

from repro.obs.export import events_to_jsonl
from repro.obs.spans import span_tree
from repro.obs.telemetry import Telemetry
from repro.session import Session
from repro.workloads.specfp import benchmark_by_name, generate_benchmark_loops

ITERATIONS = 60
MAX_LOOPS = 3


def _run(jobs: int) -> dict:
    """One full compile+simulate batch under a fresh telemetry context."""
    with Telemetry(events=True, spans=True, detail=True) as recorded:
        loops = generate_benchmark_loops(benchmark_by_name("art"),
                                         max_loops=MAX_LOOPS)
        session = Session()
        compiled = session.compile_many(loops, jobs=jobs)
        stats = session.simulate_many([c.tms for c in compiled],
                                      iterations=ITERATIONS, jobs=jobs)
    return {
        "cycles": [s.total_cycles for s in stats],
        "totals": recorded.registry.deterministic_totals(),
        "events_jsonl": events_to_jsonl(recorded.tracer.events),
        "tree": span_tree(recorded.spans.spans),
    }


def test_jobs4_telemetry_matches_jobs1():
    seq = _run(jobs=1)
    par = _run(jobs=4)

    # the workload itself is deterministic
    assert par["cycles"] == seq["cycles"]
    # merged metric totals agree exactly
    assert par["totals"] == seq["totals"]
    # trace export is byte-identical: same events, same order
    assert par["events_jsonl"] == seq["events_jsonl"]
    assert len(seq["events_jsonl"].splitlines()) > 0
    # span hierarchy agrees modulo ids/wall-clock (normalized tree)
    assert par["tree"] == seq["tree"]


def test_sequential_run_is_self_consistent():
    a = _run(jobs=1)
    b = _run(jobs=1)
    assert a["totals"] == b["totals"]
    assert a["events_jsonl"] == b["events_jsonl"]
    assert a["tree"] == b["tree"]
