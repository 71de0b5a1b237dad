"""Per-(DDG, machine) facts shared by every placement attempt.

The seed schedulers rebuilt this state per candidate — edge lists,
latencies, ancestor closures, resource specs — which profiling showed was
a dominant cost of the TMS ``(II, C_delay)`` search (thousands of
attempts per loop, each re-deriving identical dictionaries).  The
:class:`EngineContext` computes everything that depends only on the DDG
and the resource model exactly once (the folded dependence edges live
beside it in :class:`~repro.sched.engine.windows.WindowTable`);
per-attempt state lives in
:class:`~repro.sched.engine.partial.PartialSchedule`.
"""

from __future__ import annotations

from typing import Mapping

from ...graph.ddg import DDG
from ...graph.paths import NodeMetrics, compute_metrics
from ...ir.opcode import FUClass
from ...machine.resources import ResourceModel

__all__ = ["EngineContext"]

#: stable small-int index per functional-unit class (list-of-ints rows
#: beat dict-of-enum rows: no enum hashing on the probe hot path).
_FU_INDEX: dict[FUClass, int] = {fu: i for i, fu in enumerate(FUClass)}
_N_FU = len(_FU_INDEX)


class EngineContext:
    """Immutable per-(DDG, resources) scheduling facts.

    Attributes
    ----------
    spec:
        ``name -> (fu_index, count, occupancy)`` — the node's resolved
        functional-unit spec, so the MRT probe never touches the opcode
        enum or the resource-model dict.
    depth / height:
        ASAP depth and height from :func:`compute_metrics` (window seeds
        and IMS priorities).
    """

    n_fu = _N_FU

    def __init__(self, ddg: DDG, resources: ResourceModel,
                 metrics: Mapping[str, NodeMetrics] | None = None) -> None:
        self.ddg = ddg
        self.name = ddg.name
        self.resources = resources
        self.issue_width = resources.issue_width
        self.metrics = metrics if metrics is not None else compute_metrics(ddg)

        self.node_names: tuple[str, ...] = ddg.node_names
        self.position = {n.name: n.position for n in ddg.nodes}
        self.latency = {n.name: n.latency for n in ddg.nodes}
        self.spec: dict[str, tuple[int, int, int]] = {}
        for node in ddg.nodes:
            fu = node.opcode.fu_class
            fu_spec = resources.spec(fu)
            self.spec[node.name] = (_FU_INDEX[fu], fu_spec.count,
                                    fu_spec.occupancy)

        self.depth = {name: m.depth for name, m in self.metrics.items()}
        self.height = {name: m.height for name, m in self.metrics.items()}
        #: IMS priority key: greatest height first, then program order.
        self.priority = {n.name: (-self.metrics[n.name].height, n.position)
                         for n in ddg.nodes}
