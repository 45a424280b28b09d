"""Run ledger: manifests, querying, diffing, and CLI integration."""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.sim.ledger import (
    DEFAULT_RUNS_DIR,
    MANIFEST_NAME,
    RunLedger,
    diff_runs,
    find_run,
    list_runs,
    load_run,
    new_run_id,
    outcome_label,
    resolve_runs_dir,
    write_manifest,
)

SCALE = "0.00390625"  # 1/256


class TestBasics:
    def test_run_id_is_sortable_and_distinct(self):
        a = new_run_id("replay")
        b = new_run_id("replay")
        assert "-replay-" in a
        assert f"-{os.getpid()}" in a
        # Same process, (likely) same second: ids must stay distinct
        # and the later one must sort after the earlier one.
        assert a != b
        assert sorted([b, a]) == [a, b]

    @pytest.mark.parametrize(
        "code,label",
        [(0, "ok"), (3, "aborted"), (4, "salvaged"), (1, "failed"),
         (2, "failed"), (130, "failed")],
    )
    def test_outcome_labels(self, code, label):
        assert outcome_label(code) == label

    def test_resolve_runs_dir_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", "/env/runs")
        assert resolve_runs_dir("/explicit") == "/explicit"
        assert resolve_runs_dir(None) == "/env/runs"
        monkeypatch.delenv("REPRO_RUNS_DIR")
        assert resolve_runs_dir(None) == DEFAULT_RUNS_DIR

    def test_write_manifest_atomic(self, tmp_path):
        run_dir = tmp_path / "r1"
        path = write_manifest({"a": 1}, str(run_dir))
        assert json.loads(open(path).read()) == {"a": 1}
        assert os.listdir(run_dir) == [MANIFEST_NAME]  # no tmp litter


class TestRunLedger:
    def test_finish_writes_manifest(self, tmp_path):
        ledger = RunLedger(
            command="replay",
            argv=["replay", "ts_0"],
            runs_dir=str(tmp_path),
        )
        ledger.config["policy"] = "lru"
        ledger.summary = {"hit_ratio": 0.5}
        ledger.findings = [{"kind": "gc_storm"}]
        ledger.add_artifact("metrics_out", "m.jsonl")
        path = ledger.finish(0)
        doc = json.loads(open(path).read())
        assert doc["command"] == "replay"
        assert doc["argv"] == ["replay", "ts_0"]
        assert doc["outcome"] == "ok"
        assert doc["exit_code"] == 0
        assert doc["config"] == {"policy": "lru"}
        assert doc["summary"] == {"hit_ratio": 0.5}
        assert doc["findings"] == [{"kind": "gc_storm"}]
        assert doc["artifacts"]["metrics_out"] == os.path.abspath("m.jsonl")
        assert doc["env"]["python"]
        assert doc["duration_s"] >= 0
        assert "error" not in doc
        assert "durability" not in doc

    def test_finish_is_idempotent(self, tmp_path):
        ledger = RunLedger(command="replay", runs_dir=str(tmp_path))
        first = ledger.finish(0)
        assert ledger.finish(1) == first
        assert json.loads(open(first).read())["exit_code"] == 0

    def test_finish_records_error(self, tmp_path):
        ledger = RunLedger(command="replay", runs_dir=str(tmp_path))
        path = ledger.finish(1, error="Traceback ...")
        doc = json.loads(open(path).read())
        assert doc["outcome"] == "failed"
        assert doc["error"] == "Traceback ..."

    def test_unwritable_dir_is_best_effort(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        ledger = RunLedger(command="replay", runs_dir=str(blocker))
        assert ledger.finish(0) is None  # must not raise
        assert ledger.write_error is not None
        assert "run ledger write failed" in capsys.readouterr().err


class TestQuerying:
    @staticmethod
    def _mk(tmp_path, run_id, **extra):
        doc = {"run_id": run_id, "command": "replay", "outcome": "ok"}
        doc.update(extra)
        write_manifest(doc, str(tmp_path / run_id))
        return doc

    def test_list_runs_oldest_first_with_unfinished_stub(self, tmp_path):
        self._mk(tmp_path, "20260101T000000-replay-1")
        self._mk(tmp_path, "20260102T000000-replay-1")
        os.makedirs(tmp_path / "20260103T000000-replay-1")  # no manifest
        runs = list_runs(str(tmp_path))
        assert [r["run_id"] for r in runs] == [
            "20260101T000000-replay-1",
            "20260102T000000-replay-1",
            "20260103T000000-replay-1",
        ]
        assert runs[-1]["outcome"] == "unfinished"

    def test_list_runs_missing_dir(self, tmp_path):
        assert list_runs(str(tmp_path / "nope")) == []

    def test_load_and_find(self, tmp_path):
        self._mk(tmp_path, "20260101T000000-replay-1")
        self._mk(tmp_path, "20260102T000000-compare-1")
        assert load_run(
            "20260101T000000-replay-1", str(tmp_path)
        )["command"] == "replay"
        assert (
            find_run("20260102", str(tmp_path))["run_id"]
            == "20260102T000000-compare-1"
        )
        assert (
            find_run("latest", str(tmp_path))["run_id"]
            == "20260102T000000-compare-1"
        )

    def test_find_ambiguous_and_missing(self, tmp_path):
        self._mk(tmp_path, "20260101T000000-replay-1")
        self._mk(tmp_path, "20260101T000001-replay-1")
        with pytest.raises(ValueError, match="ambiguous"):
            find_run("2026", str(tmp_path))
        with pytest.raises(FileNotFoundError):
            find_run("1999", str(tmp_path))
        with pytest.raises(FileNotFoundError):
            find_run("latest", str(tmp_path / "empty"))

    def test_exact_id_beats_prefix(self, tmp_path):
        self._mk(tmp_path, "20260101T000000-replay-1")
        self._mk(tmp_path, "20260101T000000-replay-12")
        assert (
            find_run("20260101T000000-replay-1", str(tmp_path))["run_id"]
            == "20260101T000000-replay-1"
        )

    def test_diff_flattens_and_skips_noise(self):
        a = {
            "run_id": "a", "started_at": "x", "duration_s": 1.0,
            "config": {"policy": "lru", "scale": 0.1},
            "summary": {"hit_ratio": 0.5},
        }
        b = {
            "run_id": "b", "started_at": "y", "duration_s": 2.0,
            "config": {"policy": "reqblock", "scale": 0.1},
            "summary": {"hit_ratio": 0.7},
        }
        deltas = diff_runs(a, b)
        assert deltas == [
            ("config.policy", "lru", "reqblock"),
            ("summary.hit_ratio", 0.5, 0.7),
        ]

    def test_diff_identical(self):
        doc = {"run_id": "a", "config": {"x": 1}}
        assert diff_runs(doc, dict(doc, run_id="b")) == []


class TestCliIntegration:
    def test_replay_writes_manifest(self, tmp_path, capsys):
        runs = tmp_path / "ledger"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--runs-dir", str(runs)]
        )
        assert rc == 0
        manifests = list_runs(str(runs))
        assert len(manifests) == 1
        doc = manifests[0]
        assert doc["command"] == "replay"
        assert doc["outcome"] == "ok"
        assert doc["config"]["policy"] == "lru"
        assert doc["summary"]["hit_ratio"] > 0
        capsys.readouterr()

    def test_sharded_manifest_is_labelled_approximate(self, tmp_path, capsys):
        runs = tmp_path / "ledger"
        base = ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
                "--runs-dir", str(runs)]
        assert main(base) == 0
        assert main([*base, "--jobs", "2", "--shards", "4"]) == 0
        docs = {doc["config"].get("shards"): doc for doc in list_runs(str(runs))}
        assert "approximation" not in docs[None]["config"]
        assert docs[4]["config"]["approximation"] == "cold-cache segments"
        run_id = docs[4]["run_id"]
        capsys.readouterr()
        assert main(["report", run_id, "--runs-dir", str(runs)]) == 0
        assert "approximation=cold-cache segments" in capsys.readouterr().out

    def test_no_ledger_opts_out(self, tmp_path, capsys):
        runs = tmp_path / "ledger"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--no-ledger",
             "--runs-dir", str(runs)]
        )
        assert rc == 0
        assert not runs.exists()
        capsys.readouterr()

    def test_query_commands_never_mint_runs(self, tmp_path, capsys, monkeypatch):
        runs = tmp_path / "ledger"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        assert main(["policies"]) == 0
        assert main(["runs", "list"]) == 0
        assert not runs.exists()
        capsys.readouterr()

    def test_crashed_run_leaves_failed_manifest(self, tmp_path, capsys):
        runs = tmp_path / "ledger"
        with pytest.raises(FileNotFoundError):
            main(
                ["replay", str(tmp_path / "missing.csv"),
                 "--runs-dir", str(runs)]
            )
        (doc,) = list_runs(str(runs))
        assert doc["outcome"] == "failed"
        assert "FileNotFoundError" in doc["error"]
        capsys.readouterr()

    def test_runs_list_show_diff_report(self, tmp_path, capsys):
        runs = tmp_path / "ledger"
        for policy in ("lru", "reqblock"):
            assert main(
                ["replay", "ts_0", "--scale", SCALE, "--policy", policy,
                 "--runs-dir", str(runs)]
            ) == 0
        capsys.readouterr()

        assert main(["runs", "list", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert out.count("replay") >= 2
        assert "ok" in out

        assert main(["runs", "show", "latest", "--runs-dir", str(runs)]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["config"]["policy"] == "reqblock"

        ids = [r["run_id"] for r in list_runs(str(runs))]
        assert main(
            ["runs", "diff", ids[0], ids[1], "--runs-dir", str(runs)]
        ) == 0
        out = capsys.readouterr().out
        assert "config.policy" in out

        assert main(["report", "latest", "--runs-dir", str(runs)]) == 0
        out = capsys.readouterr().out
        assert "outcome   ok" in out
        assert "findings: none" in out

    def test_runs_show_arity_checked(self, tmp_path, capsys):
        assert main(["runs", "show", "--runs-dir", str(tmp_path)]) == 2
        assert main(["runs", "diff", "a", "--runs-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_report_missing_run(self, tmp_path, capsys):
        assert main(["report", "nope", "--runs-dir", str(tmp_path)]) == 1
        assert "no finished runs" in capsys.readouterr().err
