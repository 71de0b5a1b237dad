"""Workloads: the motivating example, the synthetic SPECfp2000 stand-in
suite, the Table-3 DOACROSS loops, and the memory-dependence profiler.

See DESIGN.md Section 2 for how these substitute for the paper's
GCC-compiled SPECfp2000 binaries.
"""

from .motivating import (
    motivating_loop,
    motivating_ddg,
    motivating_machine,
    motivating_latency,
)
from .memprofile import profile_memory_dependences
from .generator import LoopShape, SyntheticLoopGenerator
from .specfp import (
    BenchmarkSpec,
    SPECFP_BENCHMARKS,
    benchmark_by_name,
    generate_benchmark_loops,
)
from .doacross import DOACROSS_LOOPS, SelectedLoop, selected_loops
from .kernels import KERNEL_NAMES, all_kernels, kernel_by_name

__all__ = [
    "BenchmarkSpec",
    "DOACROSS_LOOPS",
    "KERNEL_NAMES",
    "LoopShape",
    "SPECFP_BENCHMARKS",
    "SelectedLoop",
    "SyntheticLoopGenerator",
    "all_kernels",
    "benchmark_by_name",
    "kernel_by_name",
    "generate_benchmark_loops",
    "motivating_ddg",
    "motivating_latency",
    "motivating_loop",
    "motivating_machine",
    "profile_memory_dependences",
    "selected_loops",
]
