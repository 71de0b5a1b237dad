"""One schema check and one JSON writer behind the versioned reports.

Every versioned JSON artifact — the cost-model validation report
(:mod:`repro.obs.report`), the DSE sweep report
(:mod:`repro.dse.analysis`), the chaos report
(:mod:`repro.faults.report`) and the run-ledger record
(:mod:`repro.obs.ledger`) — declares a golden schema: required keys
mapped to expected types, where a nested schema dict describes either
each row of a list-valued key or a nested object.  Their validators
and writers are thin calls into this module.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = ["check_versioned", "write_json"]


def check_versioned(data: dict[str, Any], schema: dict[str, Any],
                    version: int, *, lists: tuple[str, ...],
                    label: str = "report", strict: bool = True) -> None:
    """Check ``data``'s ``schema_version`` and then ``data`` against
    ``schema``; raises ``ValueError`` naming the first unsupported
    version, missing key or mistyped value.

    A nested schema dict under a key in ``lists`` describes each row of
    that list; under any other key, a nested object.  ``label`` names
    the artifact in missing-key errors.  ``strict`` (the default)
    recurses into nested objects, accepts an ``int`` for a ``float``
    and rejects a ``bool`` for an ``int``; ``strict=False`` checks
    leaves with plain ``isinstance`` and type-checks nested objects
    without recursing into them.
    """
    if data.get("schema_version") != version:
        raise ValueError(
            f"unsupported schema_version {data.get('schema_version')!r} "
            f"(expected {version})")
    _check(data, schema, "", lists, label, strict)


def _check(obj: dict, schema: dict, path: str, lists: tuple[str, ...],
           label: str, strict: bool) -> None:
    for key, expected in schema.items():
        if key not in obj:
            raise ValueError(f"{label} missing key {path}{key!r}")
        value = obj[key]
        if isinstance(expected, dict) and key in lists:
            if not isinstance(value, list):
                raise ValueError(f"{path}{key!r} must be a list")
            for i, row in enumerate(value):
                if not isinstance(row, dict):
                    raise ValueError(f"{path}{key}[{i}] must be an object")
                _check(row, expected, f"{path}{key}[{i}].", lists, label,
                       strict)
        elif isinstance(expected, dict):
            if not isinstance(value, dict):
                raise ValueError(f"{path}{key!r} must be an object")
            if strict:
                _check(value, expected, f"{path}{key}.", lists, label,
                       strict)
        elif strict and expected is float:
            if not isinstance(value, (int, float)) \
                    or isinstance(value, bool):
                raise ValueError(
                    f"{path}{key!r} must be a number, got "
                    f"{type(value).__name__}")
        elif not isinstance(value, expected) or strict \
                and expected is int and isinstance(value, bool):
            raise ValueError(
                f"{path}{key!r} must be {expected.__name__}, got "
                f"{type(value).__name__}")


def write_json(data: dict[str, Any], path: str | os.PathLike) -> None:
    """Persist a versioned report dict as canonical pretty JSON (sorted
    keys, so same-seed reruns write byte-identical files)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
