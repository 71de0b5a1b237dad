"""Output checks, run outside the timed region.  Each returns a list of
mismatch descriptions; an empty list means the outputs are correct."""

from __future__ import annotations

import json
from typing import Any

from .harness import ROOT

SCHED_GOLDEN = ROOT / "tests" / "golden" / "sched_golden.json"
SIM_GOLDEN = ROOT / "tests" / "golden" / "sim_golden.json"


def schedule_record(compiled: Any) -> dict[str, Any]:
    """The checked, digested view of one kernel's SMS and TMS schedules."""
    return {alg: {"ii": res.ii,
                  "slots": dict(sorted(res.schedule.slots.items())),
                  "max_live": res.max_live,
                  "c_delay": res.c_delay}
            for alg, res in (("SMS", compiled.sms), ("TMS", compiled.tms))}


def check_sched_golden(records: dict[str, dict]) -> list[str]:
    """``records`` (kernel -> :func:`schedule_record`) against every SMS
    and TMS row of the scheduler golden file for those kernels."""
    errors = []
    rows = [r for r in json.loads(SCHED_GOLDEN.read_text())["rows"]
            if r["alg"] in ("SMS", "TMS") and r["kernel"] in records]
    if len(rows) != 2 * len(records):
        errors.append(f"{len(rows)} golden schedule rows for "
                      f"{len(records)} kernels")
    for row in rows:
        got = records[row["kernel"]][row["alg"]]
        for field in ("ii", "slots", "max_live", "c_delay"):
            if got[field] != row[field]:
                errors.append(f"{row['kernel']}/{row['alg']}: {field} "
                              f"{got[field]!r} != golden {row[field]!r}")
    return errors


def check_sim_golden(stats: dict[str, dict]) -> list[str]:
    """``stats`` (``kernel/ALG`` -> ``SimStats.to_dict()``) against every
    row of the simulator golden file for those kernels."""
    errors = []
    rows = [r for r in json.loads(SIM_GOLDEN.read_text())["rows"]
            if f"{r['kernel']}/{r['alg']}" in stats]
    if len(rows) != len(stats):
        errors.append(f"{len(rows)} golden simulator rows for "
                      f"{len(stats)} simulations")
    for row in rows:
        key = f"{row['kernel']}/{row['alg']}"
        want = {k: v for k, v in row.items()
                if k not in ("benchmark", "kernel", "alg")}
        if stats[key] != want:
            diff = sorted(k for k in want if stats[key].get(k) != want[k])
            errors.append(f"{key}: SimStats differ from golden in {diff}")
    return errors


def check_schedule(loop: Any, name: str, result: Any,
                   resources: Any) -> list[str]:
    """One kernel's schedule (an ``AlgResult``) is legal and replays to
    the same machine state as the sequential interpreter."""
    from repro.errors import ReproError
    from repro.sched.pipeline_exec import check_equivalence
    from repro.sched.schedule import validate_schedule

    try:
        validate_schedule(result.schedule, resources)
        check_equivalence(loop, result.schedule)
    except ReproError as exc:
        return [f"{name}: {exc}"]
    return []


def check_responses(bodies: dict[str, tuple[dict, bytes]]) -> list[str]:
    """Every distinct serve response against ``execute_request`` on a
    fresh session (jobs=1), byte for byte."""
    from repro.serve.broker import execute_request
    from repro.serve.protocol import ServeRequest, ok_response, response_bytes
    from repro.session import Session

    session = Session(jobs=1)
    errors = []
    for request, body in bodies.values():
        req = ServeRequest(**request)
        want = response_bytes(ok_response(req, execute_request(session,
                                                               req)))
        if body != want:
            errors.append(f"response for {req.request_id()} differs from "
                          f"direct execution")
    return errors
