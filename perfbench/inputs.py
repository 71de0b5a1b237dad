"""Seeded benchmark inputs.  The program receives only what these build.

The kernel population and the simulator seed are the golden files' at
every workload seed; the seed orders the population and draws the serve
request stream.
"""

from __future__ import annotations

import random
from typing import Any, Iterator

#: synthetic SPECfp loops per benchmark (the golden files' cap)
MAX_LOOPS = 4

#: the simulator's seed (the golden files').  It is not drawn from the
#: workload seed because it sets how much a simulation re-executes: near
#: simulate's median, moving it from 0xACE5+101 to 0xACE5+103 took
#: applu_loop0/SMS from 7-9 to 13-17 ms and lucas_loop0/TMS from 13-17 to
#: 9-12 ms, so the seed, not the program, would set op_ms_p50.
SIM_SEED = 0xACE5

#: simulated trip count of the simulate workload (the golden count)
SIM_ITERATIONS = 2000


def population(seed: int) -> list[tuple[str, Any]]:
    """``(benchmark, loop)`` pairs in a seeded order: the first
    ``MAX_LOOPS`` synthetic loops of each SPECfp benchmark and the
    Table-3 DOACROSS loops.

    The loops are the canonical population at every seed.  A seeded
    population changes how much work a pass is: the cold TMS time of the
    four lucas loops alone ranged 3.1-25.3 s across seeds 2-9, and the
    kernel at ``compile-cold``'s p90 changes with the seed, so the
    seed-to-seed spread would exceed any usable regression bound.
    """
    from repro.workloads.doacross import DOACROSS_LOOPS
    from repro.workloads.specfp import (SPECFP_BENCHMARKS,
                                        generate_benchmark_loops)

    pairs = [(spec.name, loop) for spec in SPECFP_BENCHMARKS
             for loop in generate_benchmark_loops(spec, max_loops=MAX_LOOPS)]
    pairs.extend((sl.benchmark, sl.loop) for sl in DOACROSS_LOOPS)
    random.Random(seed).shuffle(pairs)
    return pairs


# -- serve ----------------------------------------------------------------------
#
# Every request value below is one the repository's own callers send
# (perfbench/README.md, "serve", gives the source of each).

#: small DSL kernels the serve workload sends (always unroll 1): the AXPY
#: loop of benchmarks/bench_serve.py and the CI serve smoke test, and the
#: stencil of examples/custom_architecture.py
SERVE_KERNELS = {
    "axpy": """
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
""",
    "stencil": """
loop stencil
array A 256
array B 256
livein acc 0.0
livein k 7.0
n0: a0 = load A[i]
n1: a1 = load A[i+1]
n2: s  = fadd a0, a1
n3: m  = fmul s, 0.5
n4: store B[i], m
n5: acc = fadd acc, m
n6: w  = load B[k] !alias n4:1:0.002
n7: t  = fmul w, 1.1
n8: store A[i+4], t
n9: k  = iadd k, 3
""",
}

#: share of new requests that are compiles: one of bench_serve's four
#: burst variants
COMPILE_FRACTION = 0.25
#: 4 is the submit CLI default; 2 is bench_serve's variant
CORES = (2, 4)
#: 200: CI serve smoke and bench_serve; 400: bench_serve's variant; 500:
#: the submit CLI default
ITERATIONS = (200, 400, 500)
#: chaos-serve draws the policy and the simulator seed like this
POLICIES = ("sms", "tms")
SIM_SEEDS = 1 << 16

#: share of requests that repeat an earlier one
REPEAT_FRACTION = 0.75
#: repeats pick among this many most recent distinct requests
REPEAT_WINDOW = 32


def _draw(rng: random.Random) -> dict[str, Any]:
    kind = "compile" if rng.random() < COMPILE_FRACTION else "simulate"
    request = {"kind": kind,
               "source": SERVE_KERNELS[rng.choice(sorted(SERVE_KERNELS))],
               "cores": rng.choice(CORES), "unroll": 1}
    if kind == "simulate":
        request.update(iterations=rng.choice(ITERATIONS),
                       seed=rng.randrange(SIM_SEEDS),
                       policy=rng.choice(POLICIES))
    return request


def fingerprint(request: dict[str, Any]) -> str:
    """The work identity of a request: what determines its response."""
    from repro.serve import ServeRequest
    return ServeRequest(**request).fingerprint()


def request_stream(seed: int) -> Iterator[tuple[str, dict[str, Any]]]:
    """Endless seeded sequence of ``(fingerprint, request)``: about three
    in four requests repeat one of the recent distinct requests, the rest
    are new."""
    rng = random.Random(seed)
    distinct: list[tuple[str, dict[str, Any]]] = []
    seen: set[str] = set()
    while True:
        if distinct and rng.random() < REPEAT_FRACTION:
            yield rng.choice(distinct[-REPEAT_WINDOW:])
            continue
        request = _draw(rng)
        while fingerprint(request) in seen:
            request = _draw(rng)
        seen.add(fingerprint(request))
        distinct.append((fingerprint(request), request))
        yield distinct[-1]
