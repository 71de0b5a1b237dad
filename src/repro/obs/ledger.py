"""The run ledger: an append-only JSONL history of CLI invocations.

When ``REPRO_LEDGER_DIR`` is set, every ``tms-experiments`` command
(``compile``, ``validate``, ``chaos``, ``serve``, ``all``, ...) and
``benchmarks/bench_serve.py`` append one schema-versioned record to
``$REPRO_LEDGER_DIR/ledger.jsonl``: what ran (command, argv, package
version, a config fingerprint), how it went (exit code, wall seconds),
and what it did (the registry's deterministic metric totals plus a
per-name span roll-up).  ``tms-experiments report`` renders the ledger
as markdown.

Design rules:

* **Appending never breaks a run.**  An unwritable directory or full
  disk degrades to a warning on stderr; the command's own exit code is
  untouched.
* **Appends are atomic and durable.**  Every record is one fsync'd
  ``O_APPEND`` write (:func:`append_jsonl_line`), so concurrent
  writers never interleave records and
  an acknowledged append survives a SIGKILL'd process.
* **Reading never crashes on a bad line.**  Ledgers are append-only
  files that can be truncated mid-write by a dying process;
  :func:`read_ledger` skips corrupt or schema-invalid lines (counting
  them) instead of raising.
* **Records are self-describing.**  ``schema_version`` gates every
  consumer; :func:`validate_ledger_record_dict` is the golden-schema
  gate, pinned by the fixture ``benchmarks/baselines/ledger_seed.jsonl``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from .schema import check_versioned

__all__ = [
    "LEDGER_FILENAME",
    "LEDGER_SCHEMA",
    "append_jsonl_line",
    "append_run_record",
    "build_run_record",
    "ledger_dir",
    "read_ledger",
    "validate_ledger_record_dict",
]

#: Schema version written into every ledger record.
SCHEMA_VERSION = 1

#: File name appended to inside the ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Golden schema of one ledger record: required keys and their types,
#: with ``spans[*]`` described one level deep.  ``metrics`` and ``extra``
#: are open objects (instrument names / command-specific payloads).
LEDGER_SCHEMA: dict[str, Any] = {
    "schema_version": int,
    "kind": str,
    "timestamp": str,
    "command": str,
    "argv": list,
    "version": str,
    "fingerprint": str,
    "exit_code": int,
    "duration_seconds": float,
    "metrics": dict,
    "spans": {
        "name": str,
        "count": int,
        "wall_seconds": float,
        "exclusive_seconds": float,
    },
    "extra": dict,
}


def append_jsonl_line(path: str | os.PathLike, line: str | bytes, *,
                      fsync: bool = True) -> None:
    """Append one JSONL line to ``path`` as a single ``O_APPEND`` write,
    durably (``fsync=True``).

    This is the run ledger's crash-safety primitive: one ``os.write``
    on an ``O_APPEND`` descriptor keeps concurrent writers from
    interleaving records, and the fsync makes an acknowledged append
    survive a SIGKILL'd process.  A writer dying *mid*-append leaves at
    most one truncated trailing line, which :func:`read_ledger` skips.
    Raises ``OSError`` on filesystem failure — degrading is the caller's
    policy decision.
    """
    data = line.encode("utf-8") if isinstance(line, str) else bytes(line)
    if not data.endswith(b"\n"):
        data += b"\n"
    fd = os.open(os.fspath(path),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def ledger_dir() -> Path | None:
    """The configured ledger directory (``REPRO_LEDGER_DIR``), or
    ``None`` when the ledger is disabled."""
    value = os.environ.get("REPRO_LEDGER_DIR", "").strip()
    return Path(value) if value else None


def _fingerprint(command: str, argv: Sequence[str], version: str) -> str:
    payload = json.dumps(
        {"command": command, "argv": list(argv), "version": version},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_run_record(command: str, argv: Sequence[str] | None = None, *,
                     exit_code: int = 0, duration_seconds: float = 0.0,
                     extra: dict[str, Any] | None = None,
                     timestamp: str | None = None) -> dict[str, Any]:
    """One schema-valid ledger record for the invocation that just ran.

    Metrics come from the default registry's
    :meth:`~repro.obs.metrics.MetricsRegistry.deterministic_totals`
    (workers already merged in), spans from the default span tracer's
    :meth:`~repro.obs.spans.SpanTracer.rollup`.  ``extra`` carries
    command-specific headline numbers (bench totals, MAPE, ...).
    """
    from .. import __version__
    from .metrics import get_registry
    from .spans import get_span_tracer

    argv = list(argv if argv is not None else sys.argv[1:])
    rollup = get_span_tracer().rollup()
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "timestamp": timestamp if timestamp is not None else
            datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "command": command,
        "argv": argv,
        "version": __version__,
        "fingerprint": _fingerprint(command, argv, __version__),
        "exit_code": int(exit_code),
        "duration_seconds": float(duration_seconds),
        "metrics": get_registry().deterministic_totals(),
        "spans": [{"name": name, **{k: agg[k] for k in
                                    ("count", "wall_seconds",
                                     "exclusive_seconds")}}
                  for name, agg in rollup.items()],
        "extra": dict(extra or {}),
    }


def append_run_record(command: str, argv: Sequence[str] | None = None, *,
                      exit_code: int = 0, duration_seconds: float = 0.0,
                      extra: dict[str, Any] | None = None,
                      directory: str | os.PathLike | None = None
                      ) -> Path | None:
    """Append one record for this invocation to the ledger.

    ``directory`` defaults to :func:`ledger_dir`; when neither is set
    the ledger is disabled and this is a no-op returning ``None``.
    Filesystem failures warn on stderr instead of raising — the ledger
    must never change a command's outcome.  Returns the ledger path on
    success.
    """
    target = Path(directory) if directory is not None else ledger_dir()
    if target is None:
        return None
    record = build_run_record(command, argv, exit_code=exit_code,
                              duration_seconds=duration_seconds, extra=extra)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path = target / LEDGER_FILENAME
    try:
        target.mkdir(parents=True, exist_ok=True)
        append_jsonl_line(path, line)
    except OSError as exc:
        print(f"warning: could not append to run ledger {path}: {exc}",
              file=sys.stderr)
        return None
    return path


def read_ledger(path: str | os.PathLike
                ) -> tuple[list[dict[str, Any]], int]:
    """Parse a ledger file into ``(records, skipped)``.

    Corrupt lines (truncated JSON from a dying writer, schema-invalid
    records, future schema versions) are skipped with one warning each —
    a damaged ledger degrades, it never crashes a report run.  A missing
    file reads as empty.
    """
    records: list[dict[str, Any]] = []
    skipped = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        return [], 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record must be an object")
            validate_ledger_record_dict(record)
        except (ValueError, TypeError) as exc:
            skipped += 1
            print(f"warning: skipping ledger line {lineno} "
                  f"({path}): {exc}", file=sys.stderr)
            continue
        records.append(record)
    return records, skipped


def validate_ledger_record_dict(data: dict[str, Any]) -> None:
    """Check ``data`` against :data:`LEDGER_SCHEMA`; raises ``ValueError``
    on a missing key, mistyped value or unsupported schema version (the
    golden-schema gate)."""
    check_versioned(data, LEDGER_SCHEMA, SCHEMA_VERSION, lists=("spans",),
                    label="ledger record")
