"""The Settings table of docs/api.md names every setting the program has.

A setting is a ``REPRO_*`` environment variable that ``src/`` reads, a
field of ``ArchConfig``, ``SchedulerConfig`` or ``SimConfig``, or an
option of ``tms-experiments serve``.  Each must have a row in the table
(with its default and the caller that sets it), and every row must be
one of them, so a new setting fails here until it is documented.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
from pathlib import Path

from repro.config import ArchConfig, SchedulerConfig, SimConfig
from repro.experiments.runner import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def _env_reads() -> set[str]:
    """``REPRO_*`` names read through ``os.environ`` / ``os.getenv``."""
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and node.args:
                func = ast.unparse(node.func)
                key = node.args[0]
                if func not in ("os.environ.get", "os.getenv"):
                    continue
            elif isinstance(node, ast.Subscript):
                if ast.unparse(node.value) != "os.environ":
                    continue
                key = node.slice
            else:
                continue
            if isinstance(key, ast.Constant) and str(key.value).startswith(
                    "REPRO_"):
                names.add(key.value)
    return names


def _config_fields() -> set[str]:
    return {f"{cls.__name__}.{f.name}"
            for cls in (ArchConfig, SchedulerConfig, SimConfig)
            for f in dataclasses.fields(cls)}


def _serve_options() -> set[str]:
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {f"serve {opt}" for action in sub.choices["serve"]._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings}


def _table_rows() -> set[str]:
    text = (ROOT / "docs" / "api.md").read_text(encoding="utf-8")
    section = text.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))


def test_every_setting_has_a_row_and_every_row_is_a_setting():
    settings = _env_reads() | _config_fields() | _serve_options()
    assert {"REPRO_JOBS", "ArchConfig.ncore", "serve --port"} <= settings
    rows = _table_rows()
    assert settings - rows == set(), "settings missing from docs/api.md"
    assert rows - settings == set(), "docs/api.md rows that are no setting"
