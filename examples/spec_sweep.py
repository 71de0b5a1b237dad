#!/usr/bin/env python3
"""Mini SPECfp2000 sweep: Table 2 + Figure 4 on a reduced population.

Compiles a capped population (5 loops per benchmark) of the synthetic
SPECfp2000 suite with SMS and TMS, prints the Table-2 metrics next to the
paper's reported values, and simulates both kernels per loop to produce
the Figure-4 speedups.  The full 778-loop population is regenerated by
``tms-experiments table2 fig4`` without the cap.

Run:  python examples/spec_sweep.py
"""

from repro.experiments import (
    render_fig4,
    render_table2,
    run_fig4,
    run_table2,
)


def main() -> None:
    rows = run_table2(max_loops=5)
    print(render_table2(rows))
    print()
    fig4 = run_fig4(iterations=300, table2_rows=rows)
    print(render_fig4(fig4))


if __name__ == "__main__":
    main()
