"""Tests for the reqblock-sim command-line interface."""

from __future__ import annotations

import argparse

import pytest

from repro.cli import build_parser, main
from repro.experiments.common import add_standard_args

SCALE = "0.00390625"  # 1/256


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay", "ts_0"])
        assert args.policy == "reqblock"
        assert args.cache_mb == 16

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "ts_0", "--policy", "nope"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "reqblock (paper comparison)" in out
        assert "lru" in out

    def test_replay_workload(self, capsys):
        rc = main(["replay", "ts_0", "--scale", SCALE, "--policy", "lru"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out

    def test_replay_trace_out(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "events.jsonl"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "reqblock",
             "--trace-out", str(out_path)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        events = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert events, "expected a non-empty event stream"
        kinds = {e["kind"] for e in events}
        assert {"cache_miss", "insert", "flash_write"} <= kinds

    def test_replay_trace_out_creates_missing_directory(self, tmp_path, capsys):
        out_path = tmp_path / "missing" / "events.jsonl"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--trace-out", str(out_path)]
        )
        assert rc == 0
        assert f"events to {out_path}" in capsys.readouterr().out
        assert out_path.read_text().count("\n") > 0

    def test_replay_check_invariants(self, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "reqblock",
             "--check-invariants"]
        )
        assert rc == 0
        assert "hit_ratio" in capsys.readouterr().out

    def test_replay_msr_file(self, tmp_path, capsys):
        p = tmp_path / "trace.csv"
        rows = [
            f"{128166372003061629 + i * 10_000},host,0,"
            f"{'Write' if i % 2 else 'Read'},{i * 4096},4096,0"
            for i in range(200)
        ]
        p.write_text("\n".join(rows) + "\n")
        assert main(["replay", str(p), "--policy", "lru"]) == 0
        assert "hit_ratio" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "ts_0", "--scale", SCALE, "--policies", "lru", "reqblock"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lru" in out and "reqblock" in out
        assert "HitRatio" in out

    def test_experiment_dispatch(self, capsys):
        rc = main(
            [
                "experiment",
                "fig10",
                "--scale",
                SCALE,
                "--workloads",
                "ts_0",
                "--processes",
                "1",
            ]
        )
        assert rc == 0
        assert "Figure 10" in capsys.readouterr().out

    def test_workloads(self, capsys):
        assert main(["workloads", "--scale", SCALE]) == 0
        out = capsys.readouterr().out
        for name in ("hm_1", "proj_0"):
            assert name in out


class TestMetricsCli:
    def test_replay_metrics_out_jsonl(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.jsonl"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--metrics-out", str(out_path),
             "--sample-interval", "1000"]
        )
        assert rc == 0
        assert "metric snapshots" in capsys.readouterr().out
        snaps = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(snaps) >= 2
        assert snaps[0]["index"] == 0.0
        assert "cache.page_hits_total" in snaps[-1]
        assert "ssd.flash.programs_total" in snaps[-1]

    def test_replay_metrics_prom_format(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--metrics-out", str(out_path),
             "--metrics-format", "prom"]
        )
        assert rc == 0
        text = out_path.read_text()
        assert "# TYPE repro_cache_page_hits_total counter" in text
        assert "repro_ssd_flash_programs_total" in text

    def test_replay_metrics_prom_creates_missing_directory(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "missing" / "metrics.prom"
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--metrics-out", str(out_path),
             "--metrics-format", "prom"]
        )
        assert rc == 0
        assert "repro_cache_page_hits_total" in out_path.read_text()

    def test_metrics_subcommand_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.jsonl"
        assert main(
            ["replay", "ts_0", "--scale", SCALE, "--metrics-out", str(out_path),
             "--sample-interval", "1000"]
        ) == 0
        capsys.readouterr()
        rc = main(["metrics", str(out_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "snapshots" in out
        assert "cache.page_hits_total" in out

    def test_metrics_subcommand_filter(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.jsonl"
        assert main(
            ["replay", "ts_0", "--scale", SCALE, "--metrics-out", str(out_path)]
        ) == 0
        capsys.readouterr()
        assert main(["metrics", str(out_path), "--filter", "gc"]) == 0
        out = capsys.readouterr().out
        assert "ssd.gc.invocations_total" in out
        assert "cache.page_hits_total" not in out

    def test_metrics_subcommand_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["metrics", str(empty)]) == 1
        assert "no metric snapshots" in capsys.readouterr().err

    def test_replay_profile_flag(self, capsys):
        rc = main(["replay", "ts_0", "--scale", SCALE, "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Phase" in out
        assert "cache_access" in out
        assert "ftl" in out

    def test_closed_loop_replay_profile_flag(self, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--queue-depth", "8",
             "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache_access" in out
        assert "ftl" in out

    def test_compare_profile_flag(self, capsys):
        rc = main(
            ["compare", "ts_0", "--scale", SCALE, "--policies", "lru",
             "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase profile: lru" in out
        assert "cache_access" in out

    def test_default_replay_output_has_no_wallclock(self, capsys):
        """Without --profile, replay output must stay deterministic (the
        CI faults job diffs two runs byte for byte)."""
        main(["replay", "ts_0", "--scale", SCALE])
        first = capsys.readouterr().out
        main(["replay", "ts_0", "--scale", SCALE])
        assert capsys.readouterr().out == first


class TestAnalyze:
    def test_analyze_workload(self, capsys):
        rc = main(["analyze", "ts_0", "--scale", SCALE])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LRU miss ratio" in out
        assert "median reuse distance" in out


class TestClosedLoopReplay:
    def test_queue_depth_flag(self, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--queue-depth", "4"]
        )
        assert rc == 0
        assert "hit_ratio" in capsys.readouterr().out


class TestParallelCli:
    """The --jobs / --shards / --start-method surface added with the
    sharded engine."""

    def test_replay_jobs_flag_parsed(self):
        args = build_parser().parse_args(["replay", "ts_0", "-j", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(
            ["replay", "ts_0", "--jobs", "2", "--shards", "8"]
        )
        assert (args.jobs, args.shards) == (2, 8)

    def test_replay_sharded(self, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--jobs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out
        assert "sharded replay" in out

    def test_replay_jobs_one_is_plain_serial(self, capsys):
        """--jobs 1 takes the classic path: no shard note, identical
        output to omitting the flag entirely."""
        main(["replay", "ts_0", "--scale", SCALE, "--policy", "lru"])
        plain = capsys.readouterr().out
        main(["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
              "--jobs", "1"])
        assert capsys.readouterr().out == plain

    def test_shards_shard_the_replay_whatever_the_jobs(self, capsys):
        """--shards M alone, with --jobs 1, or supervised without
        --jobs, replays M segments: the summary equals --jobs 2's, and
        only the footer names the worker count."""
        base = ["replay", "ts_0", "--scale", SCALE, "--policy", "reqblock"]
        tables = []
        for extra in (["--jobs", "2"], ["--jobs", "1"], [], ["--max-retries", "0"]):
            assert main([*base, *extra, "--shards", "4"]) == 0
            out = capsys.readouterr().out
            assert "[sharded replay: 4 segments" in out
            tables.append(out.split("[sharded replay:")[0])
        assert tables[1:] == [tables[0]] * 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "ts_0", "--jobs", "0"],
            ["replay", "ts_0", "--jobs", "-3"],
            ["replay", "ts_0", "--jobs", "2", "--shards", "0"],
            ["compare", "ts_0", "--jobs", "0"],
            ["experiment", "fig10", "--jobs", "0"],
            ["replay", "ts_0", "--queue-depth", "0"],
            ["replay", "ts_0", "--queue-depth", "-1"],
        ],
        ids=["replay-jobs-0", "replay-jobs-neg", "replay-shards-0",
             "compare-jobs-0", "experiment-jobs-0", "replay-queue-depth-0",
             "replay-queue-depth-neg"],
    )
    def test_nonpositive_counts_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}" in capsys.readouterr().err

    def test_replay_sharded_rejects_tracer(self, tmp_path, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--jobs", "2",
             "--trace-out", str(tmp_path / "t.jsonl")]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_replay_sharded_rejects_profile(self, capsys):
        rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--jobs", "2", "--profile"]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_compare_jobs(self, capsys):
        rc = main(
            ["compare", "ts_0", "--scale", SCALE,
             "--policies", "lru", "reqblock", "--jobs", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lru" in out and "reqblock" in out
        assert "HitRatio" in out

    def test_compare_jobs_matches_serial(self, capsys):
        argv = ["compare", "ts_0", "--scale", SCALE,
                "--policies", "lru", "reqblock"]
        main(argv)
        serial = capsys.readouterr().out
        main([*argv, "--jobs", "2"])
        assert capsys.readouterr().out == serial

    def test_compare_jobs_rejects_profile(self, capsys):
        rc = main(
            ["compare", "ts_0", "--scale", SCALE, "--policies", "lru",
             "--jobs", "2", "--profile"]
        )
        assert rc == 2
        assert "--jobs" in capsys.readouterr().err

    def test_experiment_jobs_alias(self, capsys):
        rc = main(
            ["experiment", "fig10", "--scale", SCALE,
             "--workloads", "ts_0", "--jobs", "1"]
        )
        assert rc == 0
        assert "Figure 10" in capsys.readouterr().out

    @pytest.mark.parametrize("env", ["0", "abc"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "ts_0", "--scale", SCALE, "--shards", "4"],
            ["experiment", "fig10", "--scale", SCALE, "--workloads", "ts_0"],
        ],
        ids=["replay-shards", "experiment"],
    )
    def test_bad_jobs_env_is_a_usage_error(self, argv, env, monkeypatch, capsys):
        """Where the worker count falls back to REPRO_JOBS, a value that
        is not an integer >= 1 exits 2 with a message naming it."""
        monkeypatch.delenv("REPRO_SWEEP_PROCESSES", raising=False)
        monkeypatch.setenv("REPRO_JOBS", env)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "REPRO_JOBS" in captured.err and repr(env) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("env", ["0", "abc"])
    def test_bad_sweep_env_is_a_usage_error(self, env, monkeypatch, capsys):
        """``REPRO_SWEEP_PROCESSES`` comes before ``REPRO_JOBS``; a value
        that is not an integer >= 1 exits 2 with a message naming it."""
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", env)
        monkeypatch.setenv("REPRO_JOBS", "1")
        argv = ["experiment", "fig10", "--scale", SCALE, "--workloads", "ts_0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "REPRO_SWEEP_PROCESSES" in captured.err and repr(env) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("var", ["REPRO_JOBS", "REPRO_SWEEP_PROCESSES"])
    def test_standalone_experiment_bad_env_is_a_usage_error(
        self, var, monkeypatch, capsys
    ):
        """``python -m repro.experiments.<name>`` reports a bad worker
        count variable as a usage error too (exit 2, no replay)."""
        from repro.experiments import fig10_eviction_batch

        monkeypatch.delenv("REPRO_SWEEP_PROCESSES", raising=False)
        monkeypatch.setenv(var, "0")
        argv = ["fig10_eviction_batch.py", "--scale", SCALE, "--workloads", "ts_0"]
        monkeypatch.setattr("sys.argv", argv)
        with pytest.raises(SystemExit) as info:
            fig10_eviction_batch.main()
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert f"{var} must be an integer >= 1, got '0'" in captured.err
        assert captured.out == ""

    def test_bad_jobs_env_unused_with_explicit_jobs(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "0")
        rc = main(
            ["experiment", "fig10", "--scale", SCALE,
             "--workloads", "ts_0", "--jobs", "1"]
        )
        assert rc == 0

    def test_experiment_worker_flags_match_standalone_parser(self):
        """The ``experiment`` subcommand and a standalone experiment
        parser declare the same worker and resilience flags (one
        helper) and parse them to the same values."""
        standalone = argparse.ArgumentParser()
        add_standard_args(standalone)
        sub = build_parser()._subparsers._group_actions[0].choices["experiment"]

        def options(parser):
            return {o for a in parser._actions for o in a.option_strings}

        worker_flags = options(standalone) - {"-h", "--help", "--scale", "--workloads"}
        assert worker_flags <= options(sub)
        assert {"-j", "--jobs", "--processes", "--start-method",
                "--max-retries", "--salvage"} <= worker_flags
        for flags in (
            ["-j", "3", "--start-method", "spawn", "--max-retries", "2",
             "--shard-timeout", "7.5", "--checkpoint", "run.journal",
             "--salvage", "--progress"],
            ["--processes", "2", "--resume", "old.journal"],
            [],
        ):
            got = vars(build_parser().parse_args(["experiment", "fig10", *flags]))
            want = vars(standalone.parse_args(flags))
            for key in ("scale", "workloads"):
                want.pop(key)
            assert {k: got[k] for k in want} == want, flags

    def test_experiment_start_method_choices(self):
        args = build_parser().parse_args(
            ["experiment", "fig10", "--start-method", "spawn"]
        )
        assert args.start_method == "spawn"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["experiment", "fig10", "--start-method", "thread"]
            )


@pytest.fixture
def every_progress_line(monkeypatch):
    """Live frames and live lines without their rate limits."""
    monkeypatch.setattr("repro.sim.progress.DEFAULT_FRAME_INTERVAL_S", 0.0)
    monkeypatch.setattr("repro.sim.progress.DEFAULT_HEARTBEAT_S", 0.0)


class TestProgressCli:
    """``--progress`` prints wherever it is accepted, and never changes
    stdout."""

    def _run(self, capsys, argv):
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main([*argv, "--progress"]) == 0
        shown = capsys.readouterr()
        assert shown.out == plain.out
        assert plain.err == ""
        return shown.err.splitlines()

    def test_serial_replay(self, capsys, every_progress_line, no_process_start):
        err = self._run(
            capsys, ["replay", "ts_0", "--scale", SCALE, "--policy", "lru"]
        )
        assert err and all(line.startswith("[live] shard 0 ") for line in err)

    def test_serial_compare(self, capsys, every_progress_line, no_process_start):
        err = self._run(
            capsys,
            ["compare", "ts_0", "--scale", SCALE,
             "--policies", "lru", "reqblock"],
        )
        assert any(line.startswith("[live] shard 0 ") for line in err)
        assert any(line.startswith("[live] shard 1 ") for line in err)
        assert err[-1].startswith("[shard 2/2] done     idx=1 ")

    def test_sharded_replay_drops_finished_shards(
        self, capsys, every_progress_line
    ):
        err = self._run(
            capsys,
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--jobs", "2", "--shards", "4"],
        )
        assert any(line.startswith("[live] shard") for line in err)
        assert err[-1].startswith("[shard 4/4] done")
        finished = set()
        for line in err:
            if line.startswith("[shard"):
                finished.add(line.split("idx=")[1].split()[0])
            else:
                assert line.split()[2] not in finished, line


class TestMetricsHardening:
    """The ``metrics`` subcommand must never crash on odd series."""

    @staticmethod
    def _write(tmp_path, snapshots):
        import json

        path = tmp_path / "m.jsonl"
        path.write_text(
            "".join(json.dumps(s) + "\n" for s in snapshots)
        )
        return str(path)

    def test_non_numeric_values_skipped(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                {"index": 0, "sim_ms": 0.0, "trace": "ts_0",
                 "cache.page_hits_total": 1},
                {"index": 256, "sim_ms": 9.0, "trace": "ts_0",
                 "cache.page_hits_total": 5},
            ],
        )
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "cache.page_hits_total" in out
        assert "ts_0" not in out.splitlines()[-2]  # annotation row dropped

    def test_only_annotations_reports_cleanly(self, tmp_path, capsys):
        path = self._write(
            tmp_path, [{"index": 0, "sim_ms": 0.0, "trace": "ts_0"}]
        )
        assert main(["metrics", path]) == 1
        captured = capsys.readouterr()
        assert "no numeric metrics to report" in captured.err

    def test_singleton_series(self, tmp_path, capsys):
        path = self._write(
            tmp_path, [{"index": 0, "sim_ms": 0.0, "a.b_total": 7}]
        )
        assert main(["metrics", path]) == 0
        out = capsys.readouterr().out
        assert "a.b_total" in out

    def test_all_zero_series(self, tmp_path, capsys):
        path = self._write(
            tmp_path,
            [
                {"index": i * 256, "sim_ms": float(i), "a.b_total": 0}
                for i in range(4)
            ],
        )
        assert main(["metrics", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = next(l for l in lines if "a.b_total" in l)
        assert row.split()[1] == "0"


class TestVersionFlag:
    def test_version_exits_zero_with_environment(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "reqblock-sim" in out
        assert "CPython" in out or "PyPy" in out


class TestFlightRecorderCli:
    def test_clean_replay_output_identical_with_recorder(self, capsys):
        base_rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--no-ledger"]
        )
        base = capsys.readouterr()
        rec_rc = main(
            ["replay", "ts_0", "--scale", SCALE, "--policy", "lru",
             "--no-ledger", "--flight-recorder"]
        )
        rec = capsys.readouterr()
        assert base_rc == rec_rc == 0
        assert rec.out == base.out  # byte-identical summary
