"""``tms-experiments compile`` — run the full compiler flow on a user loop.

Takes a DSL file (see :mod:`repro.ir.dsl`), profiles it, builds the DDG,
schedules with the requested policies (``--policy``, default SMS and
TMS), prints the schedules / thread program / simulated performance, and
optionally dumps everything as JSON.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..config import KNOWN_POLICIES, ArchConfig, SimConfig
from ..costmodel import achieved_c_delay, estimate_execution_time
from ..errors import MachineError
from ..graph import build_ddg
from ..ir import parse_loop, unroll_loop
from ..machine import LatencyModel, ResourceModel
from ..sched import (
    allocate_registers,
    generate_thread_program,
    max_live,
    run_postpass,
    schedule_with_policy,
)
from ..spmt import simulate, simulate_sequential
from ..workloads import profile_memory_dependences

__all__ = ["compile_report", "parse_policies", "run_compile_command"]

#: policies ``compile`` runs when ``--policy`` is not given.
DEFAULT_POLICIES: tuple[str, ...] = ("sms", "tms")


def parse_policies(spec: str) -> tuple[str, ...]:
    """Parse a comma-separated ``--policy`` value against
    :data:`KNOWN_POLICIES` (order- and duplicate-preserving)."""
    names = tuple(p.strip().lower() for p in spec.split(",") if p.strip())
    if not names:
        raise MachineError("--policy needs at least one policy name")
    for name in names:
        if name not in KNOWN_POLICIES:
            raise MachineError(
                f"unknown policy {name!r}; choose from "
                f"{', '.join(KNOWN_POLICIES)}")
    return names


def compile_report(source: str, *, arch: ArchConfig | None = None,
                   iterations: int = 1000,
                   unroll: int = 1,
                   profile_iterations: int = 512,
                   policies: tuple[str, ...] = DEFAULT_POLICIES) -> dict:
    """Compile DSL ``source`` end to end; return a JSON-able report.

    ``policies`` names the schedulers to run (see
    :data:`~repro.config.KNOWN_POLICIES`); each gets an
    ``report["algorithms"]`` entry.  When both SMS and TMS run, the
    headline ``tms_speedup_over_sms`` ratio is included.
    """
    arch = arch or ArchConfig.paper_default()
    resources = ResourceModel.default(arch.issue_width)
    latency = LatencyModel.for_arch(arch)

    loop = parse_loop(source)
    if unroll > 1:
        loop = unroll_loop(loop, unroll)
    probs = profile_memory_dependences(loop, iterations=profile_iterations)
    ddg = build_ddg(loop, latency, probabilities=probs,
                    default_irregular_probability=0.002)

    report: dict = {
        "loop": loop.name,
        "instructions": len(loop),
        "policies": list(policies),
        "profiled_dependences": [
            {"producer": p, "consumer": c, "distance": d, "probability": prob}
            for (p, c, d), prob in sorted(probs.items())
        ],
        "algorithms": {},
    }
    seq = simulate_sequential(ddg, resources, iterations)
    report["single_threaded_cycles_per_iteration"] = \
        seq.total_cycles / iterations

    for name in policies:
        sched = schedule_with_policy(ddg, resources, arch, name)
        pipelined = run_postpass(sched, arch)
        stats = simulate(pipelined, arch, SimConfig(iterations=iterations))
        alloc = allocate_registers(sched)
        est = estimate_execution_time(sched, arch, iterations)
        report["algorithms"][name] = {
            "ii": sched.ii,
            "stages": sched.num_stages,
            "c_delay": achieved_c_delay(sched, arch),
            "max_live": max_live(sched),
            "registers": alloc.n_registers,
            "send_recv_pairs_per_iteration":
                pipelined.comm.pairs_per_iteration,
            "copies": pipelined.comm.copies,
            "modelled_cycles_per_iteration": est.per_iteration,
            "simulated_cycles_per_iteration": stats.cycles_per_iteration,
            "sync_stall_cycles_per_iteration":
                stats.sync_stall_cycles / iterations,
            "misspec_frequency": stats.misspec_frequency,
            "speedup_vs_single_threaded":
                seq.total_cycles / stats.total_cycles,
            "thread_program": generate_thread_program(pipelined).listing(),
        }
    if "sms" in report["algorithms"] and "tms" in report["algorithms"]:
        tms = report["algorithms"]["tms"]
        sms = report["algorithms"]["sms"]
        report["tms_speedup_over_sms"] = (
            sms["simulated_cycles_per_iteration"]
            / tms["simulated_cycles_per_iteration"]
            if tms["simulated_cycles_per_iteration"] else 1.0)
    return report


def render_compile_report(report: dict, *, show_program: bool = True) -> str:
    lines = [f"loop {report['loop']}: {report['instructions']} instructions"]
    if report["profiled_dependences"]:
        lines.append("profiled memory dependences:")
        for dep in report["profiled_dependences"]:
            lines.append(
                f"  {dep['producer']} -> {dep['consumer']} "
                f"@d{dep['distance']}: p={dep['probability']:.4f}")
    lines.append(
        f"single-threaded: "
        f"{report['single_threaded_cycles_per_iteration']:.2f} cyc/iter")
    for name, a in report["algorithms"].items():
        lines.append(
            f"{name.upper()}: II={a['ii']} stages={a['stages']} "
            f"C_delay={a['c_delay']:.1f} regs={a['registers']} "
            f"pairs/iter={a['send_recv_pairs_per_iteration']} | "
            f"{a['simulated_cycles_per_iteration']:.2f} cyc/iter, "
            f"misspec {100 * a['misspec_frequency']:.3f}%, "
            f"{a['speedup_vs_single_threaded']:.2f}x vs single-threaded")
    if "tms_speedup_over_sms" in report:
        lines.append(f"TMS speedup over SMS: "
                     f"{report['tms_speedup_over_sms']:.2f}x")
    if show_program:
        # the most capable policy's thread program (they are listed in
        # --policy order; prefer tms when present)
        algs = report["algorithms"]
        best = "tms" if "tms" in algs else next(reversed(algs), None)
        if best is not None:
            lines.append("")
            lines.append(algs[best]["thread_program"])
    return "\n".join(lines)


def run_compile_command(path: str, *, cores: int = 4, iterations: int = 1000,
                        unroll: int = 1, json_out: str | None = None,
                        policy: str | None = None) -> int:
    source = Path(path).read_text()
    arch = ArchConfig.paper_default().with_cores(cores)
    policies = parse_policies(policy) if policy else DEFAULT_POLICIES
    report = compile_report(source, arch=arch, iterations=iterations,
                            unroll=unroll, policies=policies)
    print(render_compile_report(report))
    if json_out:
        Path(json_out).write_text(json.dumps(report, indent=2))
        print(f"\n[json report written to {json_out}]")
    return 0
