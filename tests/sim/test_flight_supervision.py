"""Chaos suite for supervised flight dumps and live progress frames.

The acceptance bar for the flight recorder is the unhappy path: a shard
killed mid-replay must still ship its last events back over the
supervisor pipe, and a salvaged CLI run must land both a
``flightdump.json`` and a ``run.json`` marked salvaged with anomaly
findings.  Workers are module-level (picklable under spawn) and use the
ambient recorder/sink the executor installs for each shard attempt,
exactly as the replay loops do.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.cli import main
from repro.obs.events import CacheHit
from repro.obs.flight import active_recorder, load_flight_dump
from repro.sim.ledger import list_runs
from repro.sim.parallel import _replay_segment as _REAL_SEGMENT
from repro.sim.supervisor import (
    EXIT_SALVAGED,
    Supervision,
    run_shards,
)
from repro.sim.progress import ProgressPrinter, make_emitter

BOTH_START_METHODS = pytest.mark.parametrize(
    "start_method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)

FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="monkeypatched worker propagates only under fork",
)

SCALE = 1 / 256
FAST = dict(backoff_base_s=0.001, backoff_cap_s=0.002)


# ----------------------------------------------------------------------
# Module-level chaos workers
# ----------------------------------------------------------------------


def _emit(value: int, n: int = 5) -> None:
    rec = active_recorder()
    assert rec is not None, "flight=True must activate an ambient recorder"
    for i in range(n):
        rec.emit(
            CacheHit(
                time=float(i), req_id=value * 100 + i, lpn=i, list_name="drl"
            )
        )


def _emit_then_maybe_fail(payload):
    value, _sentinel_dir = payload
    _emit(value)
    if value == 1:
        raise ValueError(f"poisoned shard {value}")
    return value * value


def _emit_then_hang(payload):
    value, _sentinel_dir = payload
    _emit(value)
    if value == 0:
        time.sleep(60.0)
    return value * value


def _emit_frames(payload):
    value, _sentinel_dir = payload
    emitter = make_emitter(100, phase="replay")
    if emitter is not None:
        for i in range(3):
            emitter.maybe_emit(i, hit_ratio=0.5, gc_erases=value)
    return value * value


def _emit_frames_pid(payload):
    _emit_frames(payload)
    return os.getpid()


def _payloads(tmp_path, n=3):
    return [(i, str(tmp_path)) for i in range(n)]


# ----------------------------------------------------------------------
# Flight dumps over the supervisor pipe
# ----------------------------------------------------------------------


class TestSupervisedFlight:
    @BOTH_START_METHODS
    def test_dying_shard_ships_its_dump(self, tmp_path, start_method):
        out = run_shards(
            _emit_then_maybe_fail,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            supervision=Supervision(max_retries=0, salvage=True, **FAST),
            flight=True,
        )
        assert out.results == [0, None, 4]
        assert list(out.flightdumps) == [1]
        dump = out.flightdumps[1]
        assert dump["reason"].startswith("worker_death: ValueError")
        assert [e["req_id"] for e in dump["events"]] == [
            100, 101, 102, 103, 104,
        ]

    @BOTH_START_METHODS
    def test_clean_run_ships_no_dumps(self, tmp_path, start_method):
        out = run_shards(
            _emit_then_maybe_fail,
            _payloads(tmp_path, n=1),
            jobs=1,
            start_method=start_method,
            flight=True,
        )
        assert out.results == [0]
        assert out.flightdumps == {}

    def test_watchdog_kill_still_ships_dump(self, tmp_path):
        # The watchdog SIGTERMs the hung shard; the flight-enabled
        # worker turns that into _ShardTerminated, unwinds, and the
        # dump must arrive through the post-reap pipe drain.
        out = run_shards(
            _emit_then_hang,
            _payloads(tmp_path),
            jobs=2,
            start_method="fork",
            supervision=Supervision(
                max_retries=0, shard_timeout=1.0, salvage=True, **FAST
            ),
            flight=True,
        )
        assert out.results == [None, 1, 4]
        assert out.timeouts == 1
        dump = out.flightdumps[0]
        assert "terminated by signal" in dump["reason"]
        assert [e["req_id"] for e in dump["events"]] == [0, 1, 2, 3, 4]

    @BOTH_START_METHODS
    def test_report_aggregates_dumps(self, tmp_path, start_method):
        from repro.sim.supervisor import SupervisorReport

        report = SupervisorReport()
        out = run_shards(
            _emit_then_maybe_fail,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            supervision=Supervision(max_retries=0, salvage=True, **FAST),
            flight=True,
        )
        report.add(out)
        (dump,) = report.flightdumps
        assert dump["reason"].startswith("worker_death:")


# ----------------------------------------------------------------------
# Live progress frames over the supervisor pipe
# ----------------------------------------------------------------------


@pytest.fixture
def every_frame(monkeypatch):
    """No rate limit on live frames.  The interval is read per call and
    crosses the pipe by value, so this reaches spawned workers too."""
    import repro.sim.progress as progress_mod

    monkeypatch.setattr(progress_mod, "DEFAULT_FRAME_INTERVAL_S", 0.0)


class TestSupervisedTelemetry:
    @BOTH_START_METHODS
    def test_frames_reach_the_parent_callback(
        self, tmp_path, start_method, every_frame
    ):
        frames = []
        out = run_shards(
            _emit_frames,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            progress=frames.append,
        )
        assert out.results == [0, 1, 4]
        live = [f for f in frames if f.kind == "live"]
        assert len(live) == 9  # 3 shards x 3 frames
        assert {f.shard for f in live} == {0, 1, 2}
        # gc_erases carries the worker's payload value back: frames are
        # attributed to the right shard, not just counted.
        assert all(f.gc_erases == f.shard for f in live)
        # One stream: the lifecycle frames arrive on the same callback,
        # each after its shard's live frames.
        assert [f.kind for f in frames].count("done") == 3
        for f in live:
            done_at = next(
                i for i, g in enumerate(frames)
                if g.kind == "done" and g.shard == f.shard
            )
            assert frames.index(f) < done_at

    @BOTH_START_METHODS
    def test_live_telemetry_renders_heartbeat(
        self, tmp_path, start_method, every_frame
    ):
        import io

        stream = io.StringIO()
        printer = ProgressPrinter(stream=stream, heartbeat_s=0.0)
        run_shards(
            _emit_frames,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
            progress=printer,
        )
        lines = stream.getvalue().splitlines()
        assert any(line.startswith("[live] shard") for line in lines)
        assert lines[-1].startswith("[shard 3/3] done")
        # A finished shard's live line is never printed again.
        for i, line in enumerate(lines):
            if " done " in line:
                shard = line.split("idx=")[1].split()[0]
                later = lines[i + 1:]
                assert not any(
                    g.startswith(f"[live] shard {shard} ") for g in later
                ), line
        assert printer.latest == {}

    @BOTH_START_METHODS
    def test_no_telemetry_no_sink_in_workers(self, tmp_path, start_method):
        # Without progress= the workers get no ambient sink, so
        # make_emitter returns None and nothing crosses the pipe.
        out = run_shards(
            _emit_frames,
            _payloads(tmp_path),
            jobs=2,
            start_method=start_method,
        )
        assert out.results == [0, 1, 4]

    def test_inline_run_delivers_frames_in_process(
        self, tmp_path, every_frame, no_process_start
    ):
        """``jobs=1`` with nothing to supervise runs inline even with a
        progress callback: it installs the callback as each payload's
        frame sink, tagged with the payload index."""
        frames = []
        out = run_shards(
            _emit_frames_pid,
            _payloads(tmp_path),
            jobs=1,
            progress=frames.append,
        )
        assert out.results == [os.getpid()] * 3
        assert multiprocessing.active_children() == []
        live = [f for f in frames if f.kind == "live"]
        assert [f.shard for f in live] == [0, 0, 0, 1, 1, 1, 2, 2, 2]
        assert all(f.gc_erases == f.shard for f in live)
        assert [f.kind for f in frames] == (["live"] * 3 + ["done"]) * 3
        assert make_emitter(100) is None  # the sink is gone again


# ----------------------------------------------------------------------
# Acceptance: CLI replay killed mid-run -> salvaged run.json + flightdump
# ----------------------------------------------------------------------


def _hang_shard_zero(payload):
    """Replay the segment for real, then hang shard 0 past its watchdog.

    The real replay fills the ambient flight recorder with events, so
    the dump shipped on SIGTERM carries genuine replay history.
    """
    spec = payload[3]
    result = _REAL_SEGMENT(payload)
    if spec.index == 0:
        time.sleep(60.0)
    return result


class TestCliChaosAcceptance:
    @FORK_ONLY
    def test_killed_replay_lands_salvaged_manifest_and_dump(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.sim.parallel as parallel_mod

        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        monkeypatch.setattr(parallel_mod, "_replay_segment", _hang_shard_zero)
        runs = tmp_path / "ledger"

        rc = main(
            [
                "replay", "ts_0",
                "--scale", str(SCALE),
                "--policy", "lru",
                "--jobs", "2",
                "--salvage",
                "--shard-timeout", "1.0",
                "--max-retries", "0",
                "--flight-recorder",
                "--runs-dir", str(runs),
            ]
        )
        captured = capsys.readouterr()
        assert rc == EXIT_SALVAGED

        (doc,) = list_runs(str(runs))
        assert doc["outcome"] == "salvaged"
        kinds = {f["kind"] for f in doc["findings"]}
        assert "shard_instability" in kinds
        assert any(
            f["severity"] == "critical" for f in doc["findings"]
        )
        assert doc["durability"]["shard_coverage"] == pytest.approx(0.5)

        dump_path = doc["artifacts"]["flightdump.json"]
        assert os.path.basename(dump_path) == "flightdump.json"
        assert os.path.dirname(dump_path) == os.path.join(
            str(runs), doc["run_id"]
        )
        dump = load_flight_dump(dump_path)
        assert "terminated by signal" in dump["reason"]
        assert dump["events"], "dump must carry the dying shard's events"
        assert dump["context"]["shard"] == 0
        json.dumps(dump)
        assert "flight dump" in captured.err
        assert "salvaged run" in captured.err
