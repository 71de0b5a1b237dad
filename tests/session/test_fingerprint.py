"""Round-trip guarantees of the content fingerprints and artifact keys."""

from __future__ import annotations

import importlib
from dataclasses import replace

import pytest

from repro.config import ArchConfig, SchedulerConfig
from repro.graph import build_ddg
from repro.ir import parse_loop
from repro.machine import LatencyModel, ResourceModel
from repro.session import artifact_key, fingerprint
from repro.session.fingerprint import fingerprint_payload

SRC = """
loop fp
array A 64
array B 64
livein a 2.0
n0: x = load A[i]
n1: t = fmul x, a
n2: store B[i], t
"""

SRC_OTHER_OP = SRC.replace("fmul", "fadd")


def test_identical_loops_built_independently_hash_equal():
    assert fingerprint(parse_loop(SRC)) == fingerprint(parse_loop(SRC))


def test_instruction_change_changes_fingerprint():
    assert fingerprint(parse_loop(SRC)) != fingerprint(parse_loop(SRC_OTHER_OP))


def test_loop_name_participates():
    renamed = SRC.replace("loop fp", "loop fq")
    assert fingerprint(parse_loop(SRC)) != fingerprint(parse_loop(renamed))


def test_payload_is_deterministic_json():
    a = fingerprint_payload(parse_loop(SRC))
    b = fingerprint_payload(parse_loop(SRC))
    assert a == b
    assert a.startswith("{")


def test_config_fingerprint_covers_every_field():
    base = SchedulerConfig()
    assert fingerprint(base) == fingerprint(SchedulerConfig())
    for change in (dict(p_max=0.2), dict(speculation=False),
                   dict(try_p_max_values=True),
                   dict(p_max_candidates=(0.0, 1.0))):
        assert fingerprint(replace(base, **change)) != fingerprint(base), change


def test_arch_fingerprint_covers_every_field():
    base = ArchConfig.paper_default()
    for change in (dict(ncore=8), dict(reg_comm_latency=6),
                   dict(l1_miss_rate=0.1), dict(spawn_overhead=5)):
        assert fingerprint(replace(base, **change)) != fingerprint(base), change


def test_ddg_fingerprint_round_trip():
    latency = LatencyModel.for_arch(ArchConfig.paper_default())
    d1 = build_ddg(parse_loop(SRC), latency)
    d2 = build_ddg(parse_loop(SRC), latency)
    assert fingerprint(d1) == fingerprint(d2)
    d3 = build_ddg(parse_loop(SRC_OTHER_OP), latency)
    assert fingerprint(d1) != fingerprint(d3)


def _default_key(loop, arch=None, config=None):
    arch = arch or ArchConfig.paper_default()
    return artifact_key(loop, arch,
                        ResourceModel.default(arch.issue_width),
                        config or SchedulerConfig(),
                        LatencyModel.for_arch(arch))


def test_artifact_key_stable_across_builds():
    assert _default_key(parse_loop(SRC)) == _default_key(parse_loop(SRC))


def test_artifact_key_invalidated_by_any_component():
    base = _default_key(parse_loop(SRC))
    assert _default_key(parse_loop(SRC_OTHER_OP)) != base
    assert _default_key(parse_loop(SRC),
                        arch=ArchConfig.paper_default().with_cores(8)) != base
    assert _default_key(parse_loop(SRC),
                        config=SchedulerConfig(p_max=0.5)) != base


def test_artifact_key_embeds_library_version(monkeypatch):
    import repro
    base = _default_key(parse_loop(SRC))
    monkeypatch.setattr(repro, "__version__", "0.0.0-test")
    assert _default_key(parse_loop(SRC)) != base


def test_artifact_key_embeds_the_pickle_format(monkeypatch):
    fp = importlib.import_module("repro.session.fingerprint")
    base = _default_key(parse_loop(SRC))
    monkeypatch.setattr(fp, "ARTIFACT_FORMAT", fp.ARTIFACT_FORMAT + 1)
    assert _default_key(parse_loop(SRC)) != base


def test_unfingerprintable_object_raises():
    with pytest.raises(TypeError):
        fingerprint(object())
