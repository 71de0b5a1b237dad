"""The two-tier artifact cache: LRU semantics, disk tier, counters."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.session.cache import MISS, ArtifactCache


def test_miss_then_hit():
    cache = ArtifactCache(maxsize=4)
    assert cache.get("k1") is MISS
    cache.put("k1", "v1")
    assert cache.get("k1") == "v1"
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_cached_none_is_distinguished_from_miss():
    cache = ArtifactCache()
    cache.put("k", None)
    assert cache.get("k") is None
    assert cache.get("absent") is MISS


def test_lru_eviction_order():
    cache = ArtifactCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")          # refresh a; b is now least recent
    cache.put("c", 3)
    assert "a" in cache and "c" in cache
    assert cache.get("b") is MISS
    assert cache.stats.evictions == 1


def test_invalid_maxsize_rejected():
    with pytest.raises(ValueError):
        ArtifactCache(maxsize=0)


def test_unbounded_cache():
    cache = ArtifactCache(maxsize=None)
    for i in range(5000):
        cache.put(str(i), i)
    assert len(cache) == 5000
    assert cache.stats.evictions == 0


def test_invalidate_and_clear():
    cache = ArtifactCache()
    cache.put("k", 1)
    assert cache.invalidate("k")
    assert not cache.invalidate("k")
    assert cache.stats.invalidations == 1
    cache.put("k2", 2)
    cache.clear()
    assert cache.get("k2") is MISS


def test_disk_tier_round_trip(tmp_path):
    cache = ArtifactCache(maxsize=4, disk_dir=tmp_path)
    cache.put("ab12cd", {"x": 1})
    assert cache.stats.disk_stores == 1
    assert (tmp_path / "ab" / "ab12cd.pkl").exists()
    # a fresh cache over the same directory serves the entry from disk
    warm = ArtifactCache(maxsize=4, disk_dir=tmp_path)
    assert warm.get("ab12cd") == {"x": 1}
    assert warm.stats.disk_hits == 1
    # and promotes it to memory: the second lookup is a memory hit
    assert warm.get("ab12cd") == {"x": 1}
    assert warm.stats.hits == 1


def test_disk_corrupt_entry_discarded(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    path = tmp_path / "de" / "deadbeef.pkl"
    path.parent.mkdir(parents=True)
    path.write_bytes(b"not a pickle")
    assert cache.get("deadbeef") is MISS
    assert cache.stats.disk_errors == 1
    assert not path.exists()          # removed so a rewrite can replace it


def test_disk_invalidate_removes_file(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.put("ab12", 7)
    assert cache.invalidate("ab12")
    assert ArtifactCache(disk_dir=tmp_path).get("ab12") is MISS


def test_disk_write_failure_is_soft(tmp_path, monkeypatch):
    cache = ArtifactCache(disk_dir=tmp_path)
    monkeypatch.setattr(pickle, "dump",
                        lambda *a, **k: (_ for _ in ()).throw(
                            pickle.PicklingError("boom")))
    cache.put("ab34", 7)              # must not raise
    assert cache.stats.disk_errors == 1
    assert cache.get("ab34") == 7     # memory tier still has it


def test_stats_summary_and_hit_rate():
    cache = ArtifactCache()
    assert cache.stats.hit_rate == 0.0
    cache.put("k", 1)
    cache.get("k")
    cache.get("gone")
    assert cache.stats.hit_rate == pytest.approx(0.5)
    assert "hit rate" in cache.stats.summary()


def test_disk_truncated_pickle_is_miss_and_deleted(tmp_path):
    cache = ArtifactCache(disk_dir=tmp_path)
    cache.put("ab99", [1, 2, 3])
    path = tmp_path / "ab" / "ab99.pkl"
    path.write_bytes(path.read_bytes()[:3])   # torn write survivor
    fresh = ArtifactCache(disk_dir=tmp_path)  # cold memory tier
    assert fresh.get("ab99") is MISS
    assert fresh.stats.disk_errors == 1
    assert not path.exists()
    # the slot is reusable: a re-put round-trips again
    fresh.put("ab99", [1, 2, 3])
    assert ArtifactCache(disk_dir=tmp_path).get("ab99") == [1, 2, 3]


def _hammer_writes(disk_dir, key, worker, n):
    """Worker: repeatedly overwrite `key` with self-identifying payloads."""
    cache = ArtifactCache(maxsize=2, disk_dir=disk_dir)
    for i in range(n):
        cache.put(key, {"worker": worker, "i": i, "pad": b"x" * 4096})


def test_concurrent_writers_never_expose_torn_entry(tmp_path):
    """Many processes racing os.replace on one key: every read taken
    during the race is a complete value from *some* writer, never a
    torn pickle."""
    import multiprocessing
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_hammer_writes,
                         args=(str(tmp_path), "abcd", w, 40))
             for w in range(3)]
    for p in procs:
        p.start()
    reader = ArtifactCache(maxsize=1, disk_dir=tmp_path)
    torn = 0
    seen = 0
    while any(p.is_alive() for p in procs):
        reader.clear()                     # force the disk tier
        value = reader.get("abcd")
        if value is not MISS:
            seen += 1
            assert set(value) == {"worker", "i", "pad"}
        torn = reader.stats.disk_errors
    for p in procs:
        p.join()
    assert torn == 0
    assert seen > 0
    final = ArtifactCache(disk_dir=tmp_path).get("abcd")
    assert final is not MISS and final["i"] == 39


def _write_and_die(disk_dir, key):
    """Worker killed mid-write: open the temp file, write half a pickle,
    then hard-exit before the atomic rename."""
    import pickle as _pickle
    cache = ArtifactCache(disk_dir=disk_dir)
    path = cache._disk_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = _pickle.dumps({"big": b"y" * 65536})
    (path.parent / "killed.tmp").write_bytes(payload[: len(payload) // 2])
    os._exit(9)  # simulated SIGKILL: no cleanup, no rename


def test_kill_mid_write_leaves_valid_or_miss(tmp_path):
    """A writer dying before os.replace leaves only a temp file: readers
    see MISS (not corruption), and a later write still round-trips."""
    import multiprocessing
    ctx = multiprocessing.get_context("spawn")
    p = ctx.Process(target=_write_and_die, args=(str(tmp_path), "ab77"))
    p.start()
    p.join()
    assert p.exitcode == 9
    reader = ArtifactCache(disk_dir=tmp_path)
    assert reader.get("ab77") is MISS
    assert reader.stats.disk_errors == 0       # MISS, not corruption
    reader.put("ab77", "recovered")
    assert ArtifactCache(disk_dir=tmp_path).get("ab77") == "recovered"


def test_stale_tmp_swept_on_init(tmp_path):
    (tmp_path / "ab").mkdir()
    stale = tmp_path / "ab" / "orphan.tmp"
    stale.write_bytes(b"half a pickle")
    old = os.stat(stale).st_mtime - 7200
    os.utime(stale, (old, old))
    fresh = tmp_path / "ab" / "inflight.tmp"
    fresh.write_bytes(b"live writer's temp")
    ArtifactCache(disk_dir=tmp_path)          # init sweeps
    assert not stale.exists()                 # old orphan removed
    assert fresh.exists()                     # recent temp untouched


def test_sweep_returns_removed_count(tmp_path):
    (tmp_path / "cd").mkdir(parents=True)
    for name in ("a.tmp", "b.tmp"):
        f = tmp_path / "cd" / name
        f.write_bytes(b"junk")
        os.utime(f, (1000, 1000))
    cache = ArtifactCache(disk_dir=tmp_path)  # init already swept both
    assert cache._sweep_stale_tmps() == 0
    f = tmp_path / "cd" / "c.tmp"
    f.write_bytes(b"junk")
    os.utime(f, (1000, 1000))
    assert cache._sweep_stale_tmps() == 1


# -- thread safety -----------------------------------------------------------

def test_concurrent_hammer_keeps_counters_exact():
    """Many threads hitting one cache: under the instance lock, the
    per-instance counters must balance exactly (no lost updates, no
    torn LRU state)."""
    import threading

    cache = ArtifactCache(maxsize=64)
    n_threads, n_ops = 8, 300

    def hammer(tid):
        for i in range(n_ops):
            key = f"k{(tid * 7 + i) % 32}"
            if i % 3 == 0:
                cache.put(key, (tid, i))
            else:
                cache.get(key)

    threads = [threading.Thread(target=hammer, args=(t,))
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    puts = n_threads * len(range(0, n_ops, 3))
    gets = n_threads * n_ops - puts
    assert cache.stats.stores == puts
    assert cache.stats.hits + cache.stats.misses == gets
    assert len(cache) <= 64
    # every surviving entry is intact (no torn values)
    for key in cache.keys():
        value = cache.get(key)
        assert isinstance(value, tuple) and len(value) == 2


def test_concurrent_invalidate_is_safe():
    import threading

    cache = ArtifactCache(maxsize=128)
    for i in range(64):
        cache.put(f"k{i}", i)

    def invalidate_all():
        for i in range(64):
            cache.invalidate(f"k{i}")

    threads = [threading.Thread(target=invalidate_all) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(cache) == 0
    # each key was removed exactly once across all racing threads
    assert cache.stats.invalidations == 64


def test_keys_snapshot_tolerates_concurrent_writes():
    cache = ArtifactCache(maxsize=16)
    for i in range(8):
        cache.put(f"k{i}", i)
    for key in cache.keys():            # iterating a snapshot...
        cache.put("new-" + key, 1)      # ...while mutating is fine


# -- stats_dict --------------------------------------------------------------

def test_stats_dict_shape():
    cache = ArtifactCache(maxsize=4)
    cache.put("a", 1)
    cache.get("a")
    cache.get("zzz")
    d = cache.stats_dict()
    assert d["hits"] == 1 and d["misses"] == 1 and d["stores"] == 1
    assert d["entries"] == 1 and d["maxsize"] == 4
    assert d["hit_rate"] == pytest.approx(0.5)
    assert d["disk_tier"] is False


def test_stats_dict_reports_disk_tier(tmp_path):
    cache = ArtifactCache(maxsize=4, disk_dir=tmp_path)
    cache.put("a", 1)
    d = cache.stats_dict()
    assert d["disk_tier"] is True
    assert d["disk_stores"] == 1
