"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compile-cold --seed 0 \
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric (tracing off); ``--trace 1``
makes the traced run and prints every per-layer metric.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Any golden, legality, equivalence or
serve-response mismatch exits with code 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("compile-cold", "simulate", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: orders the kernels, draws the "
                        "serve request stream")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="minimum timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # the script's own directory would shadow top-level module names
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import compile_cold, serve, simulate
    from perfbench.harness import (END_TO_END, PER_LAYER, print_end_to_end,
                                   print_per_layer, print_speed,
                                   result_line, scrub_environment)

    scrub_environment()
    workload = {"compile-cold": compile_cold, "simulate": simulate,
                "serve": serve}[args.workload]
    res = workload.run(args.seed, args.seconds, bool(args.trace))
    failed = len(res["failures"])
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}: {res['attempted']} "
          f"ops attempted, {failed} failed "
          f"(failed_frac {failed / max(res['attempted'], 1):.4f})")
    print(f"output digest sha256:{res['digest']}")
    for failure in res["failures"][:10]:
        print(f"FAILED OP: {failure}")
    print_speed(res["speed"])
    if args.trace:
        print_per_layer(args.workload, res["metrics"])
        table = PER_LAYER
    else:
        print_end_to_end(res["metrics"], res["host"], res["samples"])
        table = END_TO_END
    for error in res["errors"][:20]:
        print(f"OUTPUT MISMATCH: {error}", file=sys.stderr)
    correct = not res["errors"] and failed == 0
    print(result_line(correct, res["attempted"], failed, res["metrics"],
                      table))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
