"""Post-pass: modulo variable expansion and communication planning.

After a schedule is built (paper, end of Section 4.3):

* overlapping lifetimes are renamed by **register copies** — a value whose
  kernel consumers sit ``k > 1`` threads away is forwarded hop by hop
  through ``k - 1`` copies, so every inter-iteration register dependence in
  the executed kernel has distance 1;
* **SEND/RECV pairs** synchronise inter-thread register dependences.
  Dependences sharing one producer share the communication (the paper's
  ``n6 -> n0`` / ``n6 -> n6`` observation), so the dynamic SEND/RECV pair
  count per iteration is ``sum over producers of max d_ker`` over their
  inter-thread consumers.

The result, a :class:`PipelinedLoop`, is what the SpMT simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import ArchConfig
from ..costmodel.sync import sync_delay
from ..graph.dependence import Dependence
from .maxlive import max_live
from .schedule import Schedule

__all__ = ["SyncChannel", "CommPlan", "PipelinedLoop", "run_postpass"]


@dataclass(frozen=True)
class SyncChannel:
    """One synchronised inter-thread dependence in the executed kernel."""

    edge: Dependence
    hops: int          # kernel distance = number of ring hops
    sync: float        # per-thread skew it demands (Definition 2)


@dataclass(frozen=True)
class CommPlan:
    """Communication summary of a pipelined loop."""

    channels: tuple[SyncChannel, ...]
    #: dynamic SEND/RECV pairs executed per kernel iteration.
    pairs_per_iteration: int
    #: register copies inserted by modulo variable expansion.
    copies: int


@dataclass(frozen=True)
class PipelinedLoop:
    """A scheduled loop ready for SpMT execution."""

    schedule: Schedule
    comm: CommPlan
    max_live: int
    #: inter-iteration memory flow dependences left to hardware speculation
    #: (empty when memory is synchronised).
    speculated: tuple[Dependence, ...]
    synchronize_memory: bool = False

    @property
    def ii(self) -> int:
        return self.schedule.ii

    @property
    def num_stages(self) -> int:
        return self.schedule.num_stages


def run_postpass(schedule: Schedule, arch: ArchConfig,
                 *, synchronize_memory: bool = False) -> PipelinedLoop:
    """Build the :class:`PipelinedLoop` for ``schedule``.

    ``synchronize_memory=True`` is the no-speculation mode: memory flow
    dependences get SEND/RECV channels too and nothing is speculated.
    """
    ccom = arch.reg_comm_latency
    sync_edges: list[Dependence] = schedule.inter_iteration_register_deps()
    mem_edges: list[Dependence] = schedule.inter_iteration_memory_deps()
    if synchronize_memory:
        sync_edges = sync_edges + mem_edges
        speculated: tuple[Dependence, ...] = ()
    else:
        speculated = tuple(mem_edges)

    channels = tuple(
        SyncChannel(edge=e, hops=schedule.d_ker(e),
                    sync=sync_delay(schedule, e, ccom))
        for e in sync_edges
    )

    # one communication chain per producer, as long as its farthest consumer
    hops_by_producer: dict[str, int] = {}
    for ch in channels:
        hops_by_producer[ch.edge.src] = max(
            hops_by_producer.get(ch.edge.src, 0), ch.hops)
    pairs = sum(hops_by_producer.values())
    copies = sum(h - 1 for h in hops_by_producer.values() if h > 1)

    return PipelinedLoop(
        schedule=schedule,
        comm=CommPlan(channels=channels, pairs_per_iteration=pairs,
                      copies=copies),
        max_live=max_live(schedule),
        speculated=speculated,
        synchronize_memory=synchronize_memory,
    )
