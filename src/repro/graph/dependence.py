"""Dependence edges of the DDG."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import DDGError

__all__ = ["DepKind", "DepType", "Dependence"]


class DepKind(enum.Enum):
    """What carries the value: a register or a memory location.

    Register dependences become *synchronised* dependences on the SpMT
    machine (SEND/RECV over the operand network); memory dependences become
    *speculated* dependences (tracked by the MDT, preserved by rollback).
    """

    REGISTER = "register"
    MEMORY = "memory"


class DepType(enum.Enum):
    FLOW = "flow"      # true dependence (read-after-write)
    ANTI = "anti"      # write-after-read
    OUTPUT = "output"  # write-after-write


@dataclass(frozen=True, slots=True)
class Dependence:
    """A dependence edge ``src -> dst``.

    Attributes
    ----------
    src, dst:
        Instruction names.
    kind / dtype:
        Register vs memory, flow vs anti vs output.
    distance:
        Iteration distance ``d(src, dst)`` in the *source loop* (Definition 1
        transforms it into the kernel distance ``d_ker`` once stages are
        known).
    delay:
        Scheduling delay: any valid modulo schedule must satisfy
        ``slot(dst) >= slot(src) + delay - II * distance``.
        For flow dependences this is the producer's latency; for anti/output
        dependences it is 1 (must not issue earlier than the conflicting
        access).
    probability:
        For memory dependences, the per-iteration probability ``p_d`` that
        the dependence actually manifests (for every X writes at the
        producer, ``p_d * X`` reads at the consumer hit the same location).
        Register dependences always have probability 1.
    """

    src: str
    dst: str
    kind: DepKind
    dtype: DepType
    distance: int
    delay: int
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise DDGError(f"{self.src}->{self.dst}: negative distance {self.distance}")
        if self.delay < 0:
            raise DDGError(f"{self.src}->{self.dst}: negative delay {self.delay}")
        if not 0.0 <= self.probability <= 1.0:
            raise DDGError(
                f"{self.src}->{self.dst}: probability {self.probability} not in [0,1]")
        if self.kind is DepKind.REGISTER and self.probability != 1.0:
            raise DDGError(
                f"{self.src}->{self.dst}: register dependences are certain "
                f"(probability must be 1.0)")
        if self.distance == 0 and self.src == self.dst:
            raise DDGError(f"{self.src}: self-dependence must have distance >= 1")

    @property
    def is_loop_carried(self) -> bool:
        return self.distance > 0

    @property
    def is_register_flow(self) -> bool:
        return self.kind is DepKind.REGISTER and self.dtype is DepType.FLOW

    @property
    def is_memory_flow(self) -> bool:
        return self.kind is DepKind.MEMORY and self.dtype is DepType.FLOW

    def __str__(self) -> str:
        tag = f"{self.kind.value[:3]}/{self.dtype.value}"
        prob = "" if self.probability == 1.0 else f", p={self.probability:.3g}"
        return (f"{self.src} -> {self.dst} [{tag}, d={self.distance}, "
                f"delay={self.delay}{prob}]")
