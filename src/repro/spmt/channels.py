"""Per-thread kernel timing with RECV stalls (out-of-order dataflow model).

One thread executes one kernel iteration on its (4-wide, out-of-order)
core.  Instruction issue is modelled as dataflow over the kernel's
*intra-thread* dependences:

    issue(v) = max( start + row(v),                       # issue schedule
                    max over intra preds u: issue(u) + lat(u),
                    max over incoming channels: value arrival )

A RECV waiting on an empty queue therefore delays the consumer and its
intra-thread *dependents* — but not independent instructions, and crucially
the wait does **not** accumulate across threads unless the dependence chain
itself crosses threads (this is what an out-of-order core does, and what
distinguishes "each thread stalls C_delay" from "threads are fully
serialised"; the paper's Figure 6(a) stall counts are exactly these waits).

The thread occupies its core from ``start`` to ``finish = max issue+lat``;
stalls extend occupancy and thereby throughput, which is how SMS's large
sync delays turn into the slowdowns of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..sched.postpass import PipelinedLoop

__all__ = ["KernelTimingTemplate", "ThreadTiming"]


@dataclass(frozen=True)
class _ChannelRef:
    """A synchronised dependence as the consumer thread sees it."""

    producer: str
    consumer: str
    hops: int
    consumer_index: int
    producer_index: int


class KernelTimingTemplate:
    """Schedule-derived constants shared by all threads of one run."""

    def __init__(self, pipelined: PipelinedLoop, reg_comm_latency: int) -> None:
        sched = pipelined.schedule
        ddg = sched.ddg
        self.ii = sched.ii
        self.reg_comm_latency = reg_comm_latency
        self.names: list[str] = [n.name for n in ddg.nodes]
        self.index: dict[str, int] = {nm: i for i, nm in enumerate(self.names)}
        self.row = np.array([sched.row(nm) for nm in self.names], dtype=np.int64)
        self.latency = np.array([n.latency for n in ddg.nodes], dtype=np.int64)
        #: no-stall completion span of one kernel execution
        self.span = int((self.row + self.latency).max())

        # intra-thread dataflow edges: flow dependences with kernel
        # distance 0, topologically ordered (the distance-0 subgraph is a
        # DAG by construction; d_ker-0 edges are a subset shifted by
        # stages, still acyclic because slot(dst) >= slot(src) + delay).
        intra: list[tuple[int, int]] = []  # (src_index, dst_index)
        for e in ddg.edges:
            if e.dtype.value == "flow" and sched.d_ker(e) == 0:
                intra.append((self.index[e.src], self.index[e.dst]))
        order = np.argsort(np.array([sched.slot(nm) for nm in self.names]))
        self.topo: list[int] = [int(i) for i in order]
        self.intra_preds: list[list[int]] = [[] for _ in self.names]
        for src, dst in intra:
            self.intra_preds[dst].append(src)

        #: incoming synchronised dependences (consumer side)
        self.channels: list[_ChannelRef] = [
            _ChannelRef(
                producer=ch.edge.src,
                consumer=ch.edge.dst,
                hops=ch.hops,
                consumer_index=self.index[ch.edge.dst],
                producer_index=self.index[ch.edge.src],
            )
            for ch in pipelined.comm.channels
        ]
        self.channels_into: list[list[int]] = [[] for _ in self.names]
        for ci, ch in enumerate(self.channels):
            self.channels_into[ch.consumer_index].append(ci)

        #: speculated memory dependences (producer completes in thread j-k,
        #: consumer issues in thread j).
        self.speculated = [
            (e.src, e.dst, sched.d_ker(e), e.probability)
            for e in pipelined.speculated
        ]


@dataclass
class ThreadTiming:
    """Resolved timing of one thread execution (times relative to start).

    ``extra_latency`` is the per-instruction latency the cache misses of
    this execution added (``None`` when none were drawn): every
    completion this timing reports includes it.
    """

    start: float
    issue_rel: list[float]
    total_stall: float
    finish: float
    extra_latency: Sequence[int] | None = None

    @classmethod
    def resolve(cls, template: KernelTimingTemplate, start: float,
                arrivals: Sequence[float],
                extra_latency: Sequence[int] | None = None,
                stall_log: list[tuple[int, float, float]] | None = None
                ) -> "ThreadTiming":
        """Dataflow timing given per-channel value-arrival times.

        ``arrivals[i]`` is the absolute time channel ``i``'s value is ready
        in this thread's receive queue.  ``extra_latency`` optionally
        lengthens individual instructions (cache misses).  ``stall_log``,
        when given, collects one ``(channel_index, ready_rel, wait)``
        entry per RECV that actually stalled — the tracer's per-channel
        view of ``total_stall``.
        """
        row = template.row
        lat = template.latency
        issue: list[float] = [0.0] * len(row)
        stall = 0.0
        finish = 0.0
        for i in template.topo:
            t = float(row[i])
            for p in template.intra_preds[i]:
                lp = float(lat[p])
                if extra_latency is not None:
                    lp += extra_latency[p]
                ready = issue[p] + lp
                if ready > t:
                    t = ready
            for ci in template.channels_into[i]:
                arr_rel = arrivals[ci] - start
                if arr_rel > t:
                    if stall_log is not None:
                        stall_log.append((ci, t, arr_rel - t))
                    stall += arr_rel - t
                    t = arr_rel
            issue[i] = t
            li = float(lat[i])
            if extra_latency is not None:
                li += extra_latency[i]
            if t + li > finish:
                finish = t + li
        return cls(start=start, issue_rel=issue, total_stall=stall,
                   finish=start + finish, extra_latency=extra_latency)

    def shifted(self, delta: float) -> "ThreadTiming":
        """This timing translated ``delta`` cycles later (issue pattern
        shared — relative times are unchanged by translation)."""
        return ThreadTiming(start=self.start + delta,
                            issue_rel=self.issue_rel,
                            total_stall=self.total_stall,
                            finish=self.finish + delta,
                            extra_latency=self.extra_latency)

    def issue_time(self, template: KernelTimingTemplate, name: str) -> float:
        return self.start + self.issue_rel[template.index[name]]

    def completion_time(self, template: KernelTimingTemplate, name: str) -> float:
        """When instruction ``name`` completes: its issue plus its
        latency, a cache miss's extra cycles included."""
        idx = template.index[name]
        lat = float(template.latency[idx])
        if self.extra_latency is not None:
            lat += self.extra_latency[idx]
        return self.start + self.issue_rel[idx] + lat

    def value_arrival(self, template: KernelTimingTemplate,
                      channel_index: int) -> float:
        """When this thread's produced value for channel ``channel_index``
        reaches the consumer ``hops`` threads downstream: one full
        communication latency per ring hop after the producer completes
        (:meth:`completion_time`)."""
        ch = template.channels[channel_index]
        idx = ch.producer_index
        lat = float(template.latency[idx])
        if self.extra_latency is not None:
            lat += self.extra_latency[idx]
        return (self.start + self.issue_rel[idx] + lat
                + ch.hops * template.reg_comm_latency)
