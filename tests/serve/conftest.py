"""Serve tests: a tiny reference loop (the isolated ``registry`` and
``span_tracer`` fixtures come from the repo-wide conftest)."""

from __future__ import annotations

#: same loop as the repo-wide AXPY fixture (kept inline: serve requests
#: carry raw DSL text over the wire, so the test mirrors a real payload)
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

