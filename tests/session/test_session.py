"""Session behaviour: compile-once-reuse-everywhere, counters, defaults."""

from __future__ import annotations

import copyreg
import dataclasses
import enum
import pickle

import pytest

import repro
from repro.config import ArchConfig, SchedulerConfig, SimConfig
from repro.graph.ddg import DDGNode
from repro.graph.dependence import Dependence
from repro.ir import parse_loop
from repro.obs.telemetry import Telemetry
from repro.session import (Session, artifact_key, fingerprint, get_session,
                           reset_session, set_session)
from repro.spmt import simulate

SRC = """
loop sess
array A 64
array B 64
livein a 2.0
n0: x = load A[i]
n1: t = fmul x, a
n2: store B[i], t
"""


@pytest.fixture
def loop():
    return parse_loop(SRC)


@pytest.fixture(autouse=True)
def _fresh_default_session():
    previous = set_session(None)
    yield
    set_session(previous)


def test_cache_counts_into_the_context_current_at_each_call(loop):
    """A session built before a context is installed counts its cache
    misses into that context, like every other counter."""
    session = Session()
    with Telemetry() as fresh:
        session.compile(loop)
    assert fresh.registry.counter("cache.misses").value == 1
    assert fresh.registry.counter("session.compiles").value == 1


def test_second_compile_is_a_cache_hit(loop):
    session = Session()
    c1 = session.compile(loop)
    c2 = session.compile(loop)
    assert c1 is c2
    assert session.stats.compiles == 1
    assert session.stats.cache.hits == 1
    assert session.stats.cache.misses == 1


def test_equal_loop_built_independently_hits(loop):
    session = Session()
    session.compile(loop)
    session.compile(parse_loop(SRC))
    assert session.stats.compiles == 1


def test_config_change_recompiles(loop):
    session = Session()
    session.compile(loop)
    session.compile(loop, config=SchedulerConfig(p_max=0.5))
    assert session.stats.compiles == 2


def test_arch_change_recompiles(loop):
    session = Session()
    session.compile(loop)
    session.compile(loop, arch=ArchConfig.paper_default().with_cores(8))
    assert session.stats.compiles == 2


def test_explicit_defaults_share_key_with_implicit(loop):
    session = Session()
    session.compile(loop)
    session.compile(loop, arch=ArchConfig.paper_default(),
                    config=SchedulerConfig())
    assert session.stats.compiles == 1


def test_compile_many_dedups_and_preserves_order(loop):
    session = Session()
    other = parse_loop(SRC.replace("loop sess", "loop other"))
    out = session.compile_many([loop, other, loop])
    assert session.stats.compiles == 2
    assert out[0] is out[2]
    assert out[0].name == "sess" and out[1].name == "other"


def test_compile_many_on_error_skip(loop, monkeypatch):
    from repro.experiments import pipeline

    real = pipeline.compile_loop_uncached

    def flaky(source, *args, **kwargs):
        if source.name == "bad":
            raise RuntimeError("pathological loop")
        return real(source, *args, **kwargs)

    monkeypatch.setattr(pipeline, "compile_loop_uncached", flaky)
    bad = parse_loop(SRC.replace("loop sess", "loop bad"))
    session = Session()
    out = session.compile_many([loop, bad], on_error="skip")
    assert out[0] is not None and out[0].name == "sess"
    assert out[1] is None
    with pytest.raises(RuntimeError):
        session.compile_many([bad], on_error="raise")


def test_simulate_matches_direct_simulator(loop):
    session = Session()
    compiled = session.compile(loop)
    arch = ArchConfig.paper_default()
    got = session.simulate(compiled.tms, arch, iterations=200, seed=7)
    want = simulate(compiled.tms.pipelined, arch,
                    SimConfig(iterations=200, seed=7))
    assert got.total_cycles == want.total_cycles
    assert got.sync_stall_cycles == want.sync_stall_cycles


def test_template_memoised_across_simulations(loop):
    session = Session()
    compiled = session.compile(loop)
    session.simulate(compiled.tms, iterations=50)
    session.simulate(compiled.tms, iterations=100)
    assert session.stats.template_builds == 1
    assert session.stats.template_hits == 1
    assert session.stats.simulations == 2


def test_simulate_many_parallel_matches_sequential(loop):
    session = Session()
    compiled = session.compile(loop)
    kernels = [compiled.sms, compiled.tms]
    seq = session.simulate_many(kernels, iterations=100, jobs=1)
    par = session.simulate_many(kernels, iterations=100, jobs=2)
    assert [s.total_cycles for s in seq] == [s.total_cycles for s in par]


def test_simulate_rejects_junk():
    with pytest.raises(TypeError):
        Session().simulate("not a kernel")


def test_disk_tier_warm_session_compiles_nothing(loop, tmp_path):
    cold = Session(cache_dir=tmp_path)
    cold.compile(loop)
    assert cold.stats.compiles == 1
    warm = Session(cache_dir=tmp_path)
    warm.compile(loop)
    assert warm.stats.compiles == 0
    assert warm.stats.cache.disk_hits == 1


def test_disk_tier_reload_equals_the_compiled_loop(loop, tmp_path):
    """A ``CompiledLoop`` reloaded from the disk tier equals the one
    compiled, field for field (its DDG's nodes and edges are frozen
    slotted dataclasses), and neither carries the compile's scheduler
    analysis."""
    compiled = Session(cache_dir=tmp_path).compile(loop)
    warm = Session(cache_dir=tmp_path)
    reloaded = warm.compile(loop)
    assert warm.stats.cache.disk_hits == 1 and reloaded is not compiled
    assert reloaded.ddg.nodes == compiled.ddg.nodes
    assert reloaded.ddg.edges == compiled.ddg.edges
    assert _same(reloaded, compiled)
    blob = pickle.dumps(compiled, protocol=pickle.HIGHEST_PROTOCOL)
    for name in (b"LoopAnalysis", b"EngineContext", b"WindowTable"):
        assert name not in blob


def test_disk_tier_never_serves_an_entry_of_the_unslotted_layout(
        loop, tmp_path):
    """``DDGNode`` and ``Dependence`` pickled their fields as a
    ``__dict__`` before they had slots; the slotted classes load such a
    state as the field names themselves, without an error.  An entry
    written in that layout, under the key the library computed then
    (the version and the components, no pickle format), is never read:
    the session compiles afresh."""
    session = Session(cache_dir=tmp_path)
    parts = session._resolve(loop, None, None, None, None)
    compiled = Session().compile(loop)
    old_key = fingerprint({"version": repro.__version__, "source": loop,
                           **dict(zip(("arch", "resources", "config",
                                       "latency"), parts))})
    assert old_key != artifact_key(loop, *parts)
    path = tmp_path / old_key[:2] / f"{old_key}.pkl"
    path.parent.mkdir()
    path.write_bytes(_dict_state_pickle(compiled))
    # what reading the entry would serve
    assert pickle.loads(path.read_bytes()).ddg.nodes[0].latency == "latency"
    served = session.compile(loop)
    assert session.stats.compiles == 1
    assert session.stats.cache.disk_hits == 0
    assert _same(served, compiled)


def _dict_state_pickle(obj) -> bytes:
    """``obj`` pickled with every ``DDGNode`` and ``Dependence`` in the
    layout of their unslotted classes (``__newobj__`` plus a field
    dict)."""
    import io

    class Pickler(pickle.Pickler):
        def reducer_override(self, o):
            if type(o) in (DDGNode, Dependence):
                return (copyreg.__newobj__, (type(o),),
                        {f.name: getattr(o, f.name)
                         for f in dataclasses.fields(o)})
            return NotImplemented

    buf = io.BytesIO()
    Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def _same(a, b) -> bool:
    """Structural equality of two object graphs: containers element by
    element, any other object by the state it pickles (dataclasses, slotted
    or not, compare field by field; identity never matters)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if a is None or isinstance(a, (bool, int, float, str, bytes, frozenset,
                                   set, enum.Enum)):
        return a == b
    return _same(a.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2],
                 b.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2])


def test_cache_dir_env(loop, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    Session().compile(loop)
    warm = Session()
    warm.compile(loop)
    assert warm.stats.compiles == 0


def test_cache_dir_expands_the_home_directory(loop, tmp_path, monkeypatch):
    """``~`` in ``cache_dir`` and ``REPRO_CACHE_DIR`` names the home
    directory, never a literal ``./~`` under the working directory."""
    home = tmp_path / "home"
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.chdir(work)
    Session(cache_dir="~/c").compile(loop)
    assert list((home / "c").rglob("*.pkl"))
    monkeypatch.setenv("REPRO_CACHE_DIR", "~/env")
    Session().compile(loop)
    assert list((home / "env").rglob("*.pkl"))
    assert not (work / "~").exists()


def test_default_session_is_process_wide(loop):
    assert get_session() is get_session()
    mine = Session()
    assert set_session(mine) is not mine
    assert get_session() is mine
    reset_session()
    assert get_session() is not mine


def test_compile_and_simulate_routes_through_session(loop):
    from repro import compile_and_simulate

    session = Session()
    r1 = compile_and_simulate(loop, iterations=50, session=session)
    r2 = compile_and_simulate(loop, iterations=50, session=session)
    assert session.stats.compiles == 1
    assert r1["tms"].total_cycles == r2["tms"].total_cycles
    assert {"compiled", "sms", "tms", "sequential"} <= r1.keys()


def test_report_mentions_counters(loop):
    session = Session()
    session.compile(loop)
    text = session.report()
    assert text.startswith("session:")
    assert "1 compilations" in text


# -- fan-out ---------------------------------------------------------------

def test_one_kernel_batch_keeps_the_template_memo_under_jobs(loop):
    # a one-kernel batch runs in-process whatever jobs says, so it
    # reuses the session's timing template like jobs=1 does
    session = Session(jobs=2)
    alg = session.compile(loop).tms
    first = session.simulate_many([alg], iterations=50)
    second = session.simulate_many([alg], iterations=50)
    assert first[0].total_cycles == second[0].total_cycles
    assert session.stats.template_builds == 1
    assert session.stats.template_hits == 1
