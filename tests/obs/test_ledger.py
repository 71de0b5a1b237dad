"""Run-ledger schema golden gate + corrupt/truncated-line recovery."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.obs.ledger import (
    LEDGER_FILENAME,
    SCHEMA_VERSION,
    append_jsonl_line,
    append_run_record,
    build_run_record,
    ledger_dir,
    read_ledger,
    validate_ledger_record_dict,
)


def valid_record(**overrides) -> dict:
    """A minimal hand-built record passing the golden gate."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "timestamp": "2026-08-08T00:00:00+00:00",
        "command": "compile",
        "argv": ["--stats"],
        "version": "1.3.0",
        "fingerprint": "deadbeefdeadbeef",
        "exit_code": 0,
        "duration_seconds": 1.5,
        "metrics": {"session.compiles": 4},
        "spans": [{"name": "session.compile", "count": 4,
                   "wall_seconds": 1.2, "exclusive_seconds": 0.9}],
        "extra": {},
    }
    record.update(overrides)
    return record


class TestGoldenSchemaGate:
    def test_build_run_record_passes_the_gate(self, registry, span_tracer):
        registry.counter("session.compiles").inc(2)
        with span_tracer.span("session.compile"):
            pass
        record = build_run_record("compile", ["--stats"], exit_code=0,
                                  duration_seconds=0.25,
                                  extra={"note": "x"})
        validate_ledger_record_dict(record)  # must not raise
        assert record["metrics"]["session.compiles"] == 2
        assert record["spans"][0]["name"] == "session.compile"
        assert record["extra"] == {"note": "x"}
        # the ledger line must be plain JSON
        json.dumps(record)

    def test_fingerprint_stable_for_same_invocation(self):
        a = build_run_record("compile", ["--stats"])
        b = build_run_record("compile", ["--stats"])
        c = build_run_record("compile", ["--trace"])
        assert a["fingerprint"] == b["fingerprint"]
        assert a["fingerprint"] != c["fingerprint"]

    def test_hand_built_valid_record_passes(self):
        validate_ledger_record_dict(valid_record())

    @pytest.mark.parametrize("key", [
        "kind", "timestamp", "command", "argv", "version",
        "fingerprint", "exit_code", "duration_seconds", "metrics",
        "spans", "extra",
    ])
    def test_missing_key_rejected(self, key):
        record = valid_record()
        del record[key]
        with pytest.raises(ValueError, match=key):
            validate_ledger_record_dict(record)

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            validate_ledger_record_dict(valid_record(schema_version=99))

    def test_wrong_types_rejected(self):
        with pytest.raises(ValueError, match="command"):
            validate_ledger_record_dict(valid_record(command=7))
        with pytest.raises(ValueError, match="duration_seconds"):
            validate_ledger_record_dict(
                valid_record(duration_seconds="fast"))
        with pytest.raises(ValueError, match="argv"):
            validate_ledger_record_dict(valid_record(argv="--stats"))

    def test_bool_does_not_satisfy_int(self):
        with pytest.raises(ValueError, match="exit_code"):
            validate_ledger_record_dict(valid_record(exit_code=True))

    def test_span_rows_checked_one_level_deep(self):
        bad_row = valid_record(spans=[{"name": "x", "count": 1,
                                       "wall_seconds": 0.1}])
        with pytest.raises(ValueError, match="exclusive_seconds"):
            validate_ledger_record_dict(bad_row)
        with pytest.raises(ValueError, match="spans"):
            validate_ledger_record_dict(valid_record(spans={"name": "x"}))
        with pytest.raises(ValueError, match=r"spans\[0\]"):
            validate_ledger_record_dict(valid_record(spans=["oops"]))


class TestAppend:
    def test_disabled_without_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER_DIR", raising=False)
        assert ledger_dir() is None
        assert append_run_record("compile") is None

    def test_append_creates_dir_and_accumulates(self, tmp_path):
        target = tmp_path / "ledger" / "nested"
        for i in range(2):
            path = append_run_record("compile", [f"--run{i}"],
                                     directory=target)
        assert path == target / LEDGER_FILENAME
        records, skipped = read_ledger(path)
        assert skipped == 0
        assert [r["argv"] for r in records] == [["--run0"], ["--run1"]]

    def test_env_var_enables_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path))
        path = append_run_record("validate", [])
        assert path == tmp_path / LEDGER_FILENAME
        assert read_ledger(path)[0][0]["command"] == "validate"

    def test_unwritable_target_warns_not_raises(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        assert append_run_record("compile", directory=blocker) is None
        assert "run ledger" in capsys.readouterr().err

    @pytest.mark.skipif(os.getuid() == 0,
                        reason="chmod is advisory for root")
    def test_readonly_directory_warns_not_raises(self, tmp_path, capsys):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        try:
            assert append_run_record("compile", directory=ro) is None
        finally:
            ro.chmod(0o700)
        assert "run ledger" in capsys.readouterr().err


class TestAppendJsonlLine:
    """The crash-safety primitive under the run ledger."""

    def test_appends_newline_and_accepts_bytes(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        append_jsonl_line(path, '{"a": 1}')
        append_jsonl_line(path, b'{"b": 2}\n')
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_filesystem_failure_raises_for_the_caller(self, tmp_path):
        with pytest.raises(OSError):
            append_jsonl_line(tmp_path / "no-dir" / "x.jsonl", "{}")

    def test_concurrent_writers_never_interleave(self, tmp_path):
        """8 threads × 50 appends: every line lands intact — one
        O_APPEND write per record means no torn or merged lines."""
        path = tmp_path / "contended.jsonl"
        n_threads, n_lines = 8, 50

        def writer(tid):
            for i in range(n_lines):
                append_jsonl_line(
                    path, json.dumps({"tid": tid, "i": i,
                                      "pad": "x" * 200}),
                    fsync=False)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)

        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * n_lines
        seen = {(r["tid"], r["i"]) for r in map(json.loads, lines)}
        assert seen == {(t, i) for t in range(n_threads)
                        for i in range(n_lines)}

    def test_sigkilled_writer_leaves_at_most_a_truncated_tail(
            self, tmp_path):
        """A writer killed mid-stream must cost at most its very last
        line; every acknowledged line before it stays parseable."""
        path = tmp_path / "killed.jsonl"
        src = (
            "import itertools, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from repro.obs.ledger import append_jsonl_line\n"
            "for i in itertools.count():\n"
            "    append_jsonl_line(sys.argv[2],\n"
            "                      json.dumps({'i': i, 'pad': 'x' * 256}),\n"
            "                      fsync=False)\n"
        )
        src_dir = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        child = subprocess.Popen(
            [sys.executable, "-c", src, os.path.abspath(src_dir),
             str(path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            import time
            deadline = time.monotonic() + 30.0
            while (not path.exists() or path.stat().st_size < 4096) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert path.exists() and path.stat().st_size > 0
        finally:
            child.kill()
            child.wait(timeout=10.0)

        lines = path.read_text(encoding="utf-8").split("\n")
        complete, tail = lines[:-1], lines[-1]
        assert len(complete) >= 1
        indices = [json.loads(line)["i"] for line in complete]
        assert indices == list(range(len(indices)))   # no torn middle line
        # the unterminated tail (if any) is the only damage, and the
        # ledger reader skips exactly that
        if tail:
            with pytest.raises(json.JSONDecodeError):
                json.loads(tail)


class TestReadRecovery:
    def test_missing_file_reads_empty(self, tmp_path):
        assert read_ledger(tmp_path / "absent.jsonl") == ([], 0)

    def test_corrupt_and_truncated_lines_skipped(self, tmp_path, capsys):
        good = json.dumps(valid_record())
        path = tmp_path / LEDGER_FILENAME
        path.write_text("\n".join([
            good,
            good[: len(good) // 2],          # truncated mid-write
            "not json at all {{{",
            json.dumps({"schema_version": SCHEMA_VERSION}),  # invalid
            json.dumps(["a", "list"]),       # not an object
            "",                              # blank line is fine
            json.dumps(valid_record(command="validate")),
        ]) + "\n")
        records, skipped = read_ledger(path)
        assert [r["command"] for r in records] == ["compile", "validate"]
        assert skipped == 4
        err = capsys.readouterr().err
        assert err.count("skipping ledger line") == 4

    def test_future_schema_version_skipped_not_fatal(self, tmp_path):
        path = tmp_path / LEDGER_FILENAME
        path.write_text(json.dumps(valid_record(schema_version=2)) + "\n"
                        + json.dumps(valid_record()) + "\n")
        records, skipped = read_ledger(path)
        assert len(records) == 1
        assert skipped == 1
