"""The data-dependence graph and its construction from loop IR.

``build_ddg`` derives:

* **register flow dependences** from def-use chains: a use ``Reg(r, back=k)``
  of the (unique) definition ``u`` of ``r`` carries distance
  ``k`` when the use follows the definition in program order and ``k + 1``
  otherwise;
* **memory dependences** from array subscript analysis — an exact
  single-distance dependence for affine subscript pairs with equal
  coefficients (strong-SIV), and *probabilistic* dependences for irregular
  pairs (indirect subscripts or mismatched coefficients), with per-distance
  probabilities taken from profile data / alias hints, conservatively 1.0
  when neither is available.

All dependences are scheduling constraints (matching the paper, whose
``RecII`` for the motivating example includes the probabilistic memory
dependence ``n5 -> n0``); the *probabilities* only matter to TMS's cost
model and to the SpMT simulator's violation draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..errors import DDGError
from ..ir.instruction import Instruction
from ..ir.loop import INDUCTION_VAR, Loop
from ..ir.opcode import Opcode
from ..ir.operand import AffineIndex
from ..machine.latency import LatencyModel
from .dependence import Dependence, DepKind, DepType

__all__ = ["DDGNode", "DDG", "build_ddg"]

#: delay used for anti and output dependences.
_ORDER_DELAY = 1


@dataclass(frozen=True, slots=True)
class DDGNode:
    """A scheduling node: one instruction with its assumed latency."""

    name: str
    opcode: Opcode
    latency: int
    position: int

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise DDGError(f"node {self.name!r}: latency must be >= 1")


class DDG:
    """An immutable data-dependence graph."""

    def __init__(self, name: str, nodes: Sequence[DDGNode],
                 edges: Iterable[Dependence], *, loop: Loop | None = None) -> None:
        self.name = name
        self.nodes: tuple[DDGNode, ...] = tuple(nodes)
        if not self.nodes:
            raise DDGError(
                f"DDG {name!r} has no nodes; a schedulable loop needs at "
                f"least one instruction")
        self.loop = loop
        self._by_name: dict[str, DDGNode] = {}
        for node in self.nodes:
            if node.name in self._by_name:
                raise DDGError(f"duplicate DDG node {node.name!r}")
            self._by_name[node.name] = node
        self.edges: tuple[Dependence, ...] = tuple(edges)
        preds: dict[str, list[Dependence]] = {n.name: [] for n in self.nodes}
        succs: dict[str, list[Dependence]] = {n.name: [] for n in self.nodes}
        for e in self.edges:
            if e.src not in self._by_name or e.dst not in self._by_name:
                raise DDGError(f"edge {e} references unknown node")
            succs[e.src].append(e)
            preds[e.dst].append(e)
        self._preds = {name: tuple(es) for name, es in preds.items()}
        self._succs = {name: tuple(es) for name, es in succs.items()}
        self._check_intra_iteration_acyclic()

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)

    def node(self, name: str) -> DDGNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise DDGError(f"DDG {self.name!r} has no node {name!r}") from None

    def latency(self, name: str) -> int:
        return self.node(name).latency

    def preds(self, name: str) -> list[Dependence]:
        """Incoming dependence edges of ``name``."""
        return list(self._preds[name])

    def succs(self, name: str) -> list[Dependence]:
        """Outgoing dependence edges of ``name``."""
        return list(self._succs[name])

    def opcodes(self) -> list[Opcode]:
        return [n.opcode for n in self.nodes]

    def register_flow_edges(self) -> list[Dependence]:
        return [e for e in self.edges if e.is_register_flow]

    def memory_flow_edges(self) -> list[Dependence]:
        return [e for e in self.edges if e.is_memory_flow]

    # -- validation ----------------------------------------------------------

    def _check_intra_iteration_acyclic(self) -> None:
        """Distance-0 edges must form a DAG (a same-iteration cycle is
        unexecutable)."""
        indeg: dict[str, int] = {n.name: 0 for n in self.nodes}
        adj: dict[str, list[str]] = {n.name: [] for n in self.nodes}
        for e in self.edges:
            if e.distance == 0:
                adj[e.src].append(e.dst)
                indeg[e.dst] += 1
        queue = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while queue:
            u = queue.pop()
            seen += 1
            for v in adj[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
        if seen != len(self.nodes):
            raise DDGError(
                f"DDG {self.name!r}: intra-iteration (distance-0) dependences "
                f"form a cycle")

    def describe(self) -> str:
        lines = [f"DDG {self.name}: {len(self.nodes)} nodes, {len(self.edges)} edges"]
        for n in self.nodes:
            lines.append(f"  {n.name}: {n.opcode.value} (lat {n.latency})")
        for e in self.edges:
            lines.append(f"  {e}")
        return "\n".join(lines)


def build_ddg(
    loop: Loop,
    latency: LatencyModel,
    *,
    probabilities: Mapping[tuple[str, str, int], float] | None = None,
    include_reg_anti: bool = False,
    max_irregular_distance: int = 1,
    default_irregular_probability: float = 1.0,
    lsq_threshold: float = 0.1,
) -> DDG:
    """Construct the DDG of ``loop``.

    Parameters
    ----------
    probabilities:
        Profile data: ``(producer, consumer, distance) -> p_d`` for irregular
        memory pairs, as produced by
        :func:`repro.workloads.memprofile.profile_memory_dependences`.
    include_reg_anti:
        Also emit register anti/output dependences (only meaningful when the
        post-pass renaming is disabled; GCC's SMS schedules virtual
        registers, so the default is off).
    max_irregular_distance:
        Largest loop-carried distance emitted for irregular pairs when no
        profile/hint information exists (a distance-1 edge is the tightest
        constraint and subsumes larger distances for scheduling purposes).
    default_irregular_probability:
        ``p_d`` assumed for unprofiled irregular pairs.
    lsq_threshold:
        *Intra-iteration* (distance-0) memory dependences with probability
        below this threshold are not emitted as scheduling edges: both
        accesses execute in the same thread, where the out-of-order core's
        load-store queue disambiguates them dynamically — the compiler need
        not serialise unlikely same-iteration aliases.  (Without this,
        every pair of indirect accesses in a body chains serially and an
        smvp-style loop's LDP explodes far past anything the paper
        reports.)  Loop-carried dependences are always kept: those cross
        threads, where only MDT speculation or synchronisation can cover
        them.
    """
    positions = {ins.name: idx for idx, ins in enumerate(loop.body)}
    nodes = [
        DDGNode(name=ins.name, opcode=ins.opcode, latency=latency.of(ins),
                position=positions[ins.name])
        for ins in loop.body
    ]
    edges: dict[tuple, Dependence] = {}

    def add(dep: Dependence) -> None:
        key = (dep.src, dep.dst, dep.kind, dep.dtype, dep.distance)
        old = edges.get(key)
        if old is None or (dep.probability, dep.delay) > (old.probability, old.delay):
            edges[key] = dep

    _add_register_deps(loop, latency, positions, add, include_reg_anti)
    _add_memory_deps(loop, latency, positions, add,
                     probabilities or {}, max_irregular_distance,
                     default_irregular_probability, lsq_threshold)
    return DDG(loop.name, nodes, edges.values(), loop=loop)


# ---------------------------------------------------------------------------
# register dependences
# ---------------------------------------------------------------------------

def _add_register_deps(loop: Loop, latency: LatencyModel,
                       positions: Mapping[str, int], add, include_anti: bool) -> None:
    definers = loop.definers()
    for v in loop.body:
        for reg in v.reg_reads:
            if reg.name == INDUCTION_VAR:
                continue
            u = definers.get(reg.name)
            if u is None:
                continue  # pure live-in, no loop-carried producer
            distance = reg.back + (0 if positions[u.name] < positions[v.name] else 1)
            add(Dependence(src=u.name, dst=v.name, kind=DepKind.REGISTER,
                           dtype=DepType.FLOW, distance=distance,
                           delay=latency.of(u)))
            if include_anti and reg.back == 0:
                # the next redefinition of the register kills the value this
                # use reads; with back-references renaming is mandatory and
                # anti dependences are meaningless.
                anti_distance = 0 if positions[v.name] < positions[u.name] else 1
                add(Dependence(src=v.name, dst=u.name, kind=DepKind.REGISTER,
                               dtype=DepType.ANTI, distance=anti_distance,
                               delay=_ORDER_DELAY))
    if include_anti:
        for u in definers.values():
            add(Dependence(src=u.name, dst=u.name, kind=DepKind.REGISTER,
                           dtype=DepType.OUTPUT, distance=1, delay=_ORDER_DELAY))


# ---------------------------------------------------------------------------
# memory dependences
# ---------------------------------------------------------------------------

def _add_memory_deps(loop: Loop, latency: LatencyModel,
                     positions: Mapping[str, int], add,
                     probabilities: Mapping[tuple[str, str, int], float],
                     max_irregular_distance: int,
                     default_probability: float,
                     lsq_threshold: float) -> None:
    by_array: dict[str, list[Instruction]] = {}
    for ins in loop.body:
        if ins.mem is not None:
            by_array.setdefault(ins.mem.array, []).append(ins)

    for accesses in by_array.values():
        for u in accesses:
            for v in accesses:
                dtype = _mem_dep_type(u, v)
                if dtype is None:
                    continue
                delay = latency.of(u) if dtype is DepType.FLOW else _ORDER_DELAY
                for distance, prob in _mem_dep_distances(
                        u, v, positions, probabilities,
                        max_irregular_distance, default_probability):
                    if distance == 0 and u.name == v.name:
                        continue
                    if distance == 0 and prob < lsq_threshold:
                        # same-thread unlikely alias: the core's load-store
                        # queue disambiguates it dynamically.
                        continue
                    add(Dependence(src=u.name, dst=v.name, kind=DepKind.MEMORY,
                                   dtype=dtype, distance=distance, delay=delay,
                                   probability=prob))


def _mem_dep_type(u: Instruction, v: Instruction) -> DepType | None:
    if u.opcode.is_store and v.opcode.is_load:
        return DepType.FLOW
    if u.opcode.is_load and v.opcode.is_store:
        return DepType.ANTI
    if u.opcode.is_store and v.opcode.is_store:
        return DepType.OUTPUT
    return None


def _mem_dep_distances(
    u: Instruction, v: Instruction, positions: Mapping[str, int],
    probabilities: Mapping[tuple[str, str, int], float],
    max_irregular_distance: int, default_probability: float,
) -> list[tuple[int, float]]:
    """Distances (with probabilities) at which ``v`` may depend on ``u``."""
    iu, iv = u.mem.index, v.mem.index
    min_d = 0 if positions[u.name] < positions[v.name] else 1

    if isinstance(iu, AffineIndex) and isinstance(iv, AffineIndex):
        if iu.coeff == iv.coeff and iu.coeff != 0:
            # strong SIV: address_u(j) == address_v(j + d)
            num = iu.offset - iv.offset
            if num % iu.coeff != 0:
                return []
            d = num // iu.coeff
            return [(d, 1.0)] if d >= min_d else []
        if iu.coeff == 0 and iv.coeff == 0:
            # two loop-invariant addresses: conflict every iteration iff equal
            if iu.offset != iv.offset:
                return []
            return [(d, 1.0) for d in range(min_d, max(min_d, 1) + 1)]
        # mismatched strides: fall through to the irregular path

    # irregular pair: consult profile data, then alias hints, then the
    # conservative default.
    out: list[tuple[int, float]] = []
    for (prod, cons, d), p in probabilities.items():
        if prod == u.name and cons == v.name and d >= min_d and p > 0.0:
            out.append((d, p))
    if out:
        return sorted(out)
    for hint in v.alias_hints:
        if hint.producer == u.name and hint.distance >= min_d:
            out.append((hint.distance, hint.probability))
    if out:
        return sorted(out)
    return [(d, default_probability)
            for d in range(min_d, max(min_d, max_irregular_distance) + 1)]
