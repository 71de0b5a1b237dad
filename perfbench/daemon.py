"""Run ``tms-experiments serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/daemon.py SPANS_OUT serve [serve options]``.
The daemon runs until it is shut down; its spans are then written to
``SPANS_OUT`` as JSON.  The untraced serve workload starts the plain
``python -m repro.experiments serve`` instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.harness import Spans, layer_spans  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.experiments.runner import main as cli_main

    out, args = Path(argv[0]), argv[1:]
    spans = Spans()
    try:
        with layer_spans(spans):
            code = cli_main(args)
    finally:
        spans.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
