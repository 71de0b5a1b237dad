"""ASCII visualisation of schedules and thread timelines.

Terminal-friendly renderings for inspection, docs and the compile CLI:

* ``kernel_gantt`` — the kernel as a row × functional-unit grid, one cell
  per placed instruction, stage numbers marked;
* ``flat_schedule_chart`` — the one-iteration flat schedule as horizontal
  issue/latency bars, stage boundaries ruled;
* ``thread_timeline`` — SpMT threads (from a simulation's ``sim``
  events) as per-core occupancy bars, showing spawn cascade, stalls and
  commit serialisation.
"""

from __future__ import annotations

from typing import Iterable

from ..ir.opcode import FUClass
from ..obs.events import Event
from .schedule import Schedule

__all__ = ["kernel_gantt", "flat_schedule_chart", "thread_timeline"]


def kernel_gantt(schedule: Schedule) -> str:
    """Kernel rows × FU classes, each cell listing the instructions the
    row issues on that class."""
    ddg = schedule.ddg
    classes = [fu for fu in FUClass
               if any(n.opcode.fu_class is fu for n in ddg.nodes)]
    grid: dict[tuple[int, FUClass], list[str]] = {}
    for node in ddg.nodes:
        key = (schedule.row(node.name), node.opcode.fu_class)
        grid.setdefault(key, []).append(
            f"{node.name}/s{schedule.stage(node.name)}")
    col_width = {
        fu: max([len(fu.value)] + [len(" ".join(grid.get((r, fu), [])))
                                   for r in range(schedule.ii)]) + 1
        for fu in classes
    }
    header = "row | " + " | ".join(fu.value.ljust(col_width[fu])
                                   for fu in classes)
    lines = [f"kernel gantt: {ddg.name} (II={schedule.ii}, "
             f"stages={schedule.num_stages})", header,
             "-" * len(header)]
    for r in range(schedule.ii):
        cells = [" ".join(grid.get((r, fu), [])).ljust(col_width[fu])
                 for fu in classes]
        lines.append(f"{r:3d} | " + " | ".join(cells))
    return "\n".join(lines)


def flat_schedule_chart(schedule: Schedule, width: int = 72) -> str:
    """Horizontal bars: issue cycle to completion per instruction, with
    stage boundaries marked by '|'."""
    ddg = schedule.ddg
    span = schedule.span
    scale = max(1.0, span / width)
    boundaries = {round(k * schedule.ii / scale)
                  for k in range(1, schedule.num_stages)}
    name_w = max(len(n.name) for n in ddg.nodes)
    lines = [f"flat schedule: {ddg.name} (span={span}, II={schedule.ii})"]
    for node in sorted(ddg.nodes, key=lambda n: (schedule.slot(n.name),
                                                 n.position)):
        start = int(schedule.slot(node.name) / scale)
        length = max(1, int(node.latency / scale))
        row = [" "] * (int(span / scale) + 1)
        for b in boundaries:
            if b < len(row):
                row[b] = "|"
        for i in range(start, min(start + length, len(row))):
            row[i] = "#"
        lines.append(f"{node.name.rjust(name_w)} "
                     f"[{''.join(row)}] @{schedule.slot(node.name)}")
    return "\n".join(lines)


def thread_timeline(events: Iterable[Event], ncore: int,
                    width: int = 72, limit: int = 16) -> str:
    """Per-core occupancy bars for the first ``limit`` committed threads.

    ``events`` are one simulation's trace events, recorded under
    ``Telemetry(events=True)``: each thread's ``sim.exec`` event gives
    its core, start, finish and restarts, its ``sim.commit`` event the
    end of its commit.  '=' marks execution, '.' the gap to commit; the
    left edge of each bar is the thread's start time.
    """
    execs: dict[int, Event] = {}
    commits: dict[int, float] = {}
    for e in events:
        if e.cat == "sim" and e.name == "exec":
            execs[e.args["thread"]] = e
        elif e.cat == "sim" and e.name == "commit":
            commits[e.args["thread"]] = e.ts + e.dur
    threads = sorted(j for j in execs if j in commits)[:limit]
    if not threads:
        return ("(no thread records; simulate under "
                "Telemetry(events=True))")
    t0 = min(execs[j].ts for j in threads)
    t1 = max(commits[j] for j in threads)
    scale = max(1.0, (t1 - t0) / width)
    lines = [f"thread timeline ({len(threads)} threads, {ncore} cores, "
             f"1 char ~ {scale:.1f} cycles)"]
    for j in threads:
        ex = execs[j]
        finish = ex.ts + ex.dur
        start = int((ex.ts - t0) / scale)
        run = max(1, int((finish - ex.ts) / scale))
        wait = max(0, int((commits[j] - finish) / scale))
        bar = " " * start + "=" * run + "." * wait
        restarts = ex.args["restarts"]
        flag = f" !{restarts}" if restarts else ""
        lines.append(f"t{j:<3} c{ex.args['tid']} |{bar[:width + 8]}{flag}")
    return "\n".join(lines)
