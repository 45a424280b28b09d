"""Replay integration: durability reports, abort handling, CLI exit code."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_ABORTED, main
from repro.obs.flight import FlightRecorder
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from repro.ssd.controller import SSDController
from repro.ssd.flash import FlashOutOfSpace
from repro.traces.model import PAGE_SIZE_BYTES
from repro.traces.patterns import random_writes

SCALE = "0.00390625"  # 1/256, the CLI test scale


def small_config(**overrides) -> ReplayConfig:
    return ReplayConfig(
        policy="lru", cache_bytes=32 * PAGE_SIZE_BYTES, **overrides
    )


class TestDurabilityAttachment:
    def test_fault_free_run_has_no_durability(self):
        metrics = replay_trace(random_writes(100, span_pages=64), small_config())
        assert metrics.durability is None
        assert not metrics.aborted
        assert metrics.aborted_reason == ""

    def test_faulty_run_attaches_durability(self):
        metrics = replay_trace(
            random_writes(200, span_pages=64, seed=1),
            small_config(
                fault_profile="default",
                fault_seed=7,
                power_loss_at=50,
                capacitor_pages=4,
            ),
        )
        assert not metrics.aborted
        assert metrics.durability is not None
        assert metrics.durability.fault_profile == "default"
        assert metrics.durability.fault_seed == 7
        assert metrics.durability.power_loss is not None
        assert metrics.durability.power_loss.at_request == 50
        # The durability table renders (CLI uses these rows verbatim).
        rows = dict(metrics.durability.rows())
        assert rows["fault_profile"] == "default"
        assert rows["power_loss_at_request"] == 50


#: Summary fields that only the metrics fold writes.
FOLDED_FIELDS = (
    "requests",
    "hit_ratio",
    "read_hit_ratio",
    "write_hit_ratio",
    "mean_response_ms",
    "p99_response_ms",
    "total_response_ms",
    "evictions",
    "mean_eviction_pages",
)


def fail_submit_at(monkeypatch, index: int, exc: BaseException) -> None:
    """Make ``SSDController.submit`` raise ``exc`` on request ``index``."""
    original = SSDController.submit
    state = {"n": 0}

    def flaky_submit(self, request):
        if state["n"] == index:
            raise exc
        state["n"] += 1
        return original(self, request)

    monkeypatch.setattr(SSDController, "submit", flaky_submit)


class TestAbortedReplay:
    def test_device_fatal_error_aborts_with_partial_metrics(self, monkeypatch):
        fail_submit_at(monkeypatch, 7, FlashOutOfSpace("plane 0 has no free blocks"))
        metrics = replay_trace(
            random_writes(50, span_pages=64), small_config(drain_at_end=True)
        )

        assert metrics.aborted
        assert metrics.aborted_at_request == 7
        assert "no free blocks" in metrics.aborted_reason
        assert metrics.n_requests == 7, "metrics up to the abort are kept"
        assert metrics.durability is not None, "abort always attaches a report"
        metrics.summary()  # partial metrics must still summarise

    def test_abort_past_the_first_chunk_dumps_every_request(self, monkeypatch):
        """The replay folds its records in chunks; an abort after the
        first chunk folds the pending ones before the flight dump."""
        fail_submit_at(monkeypatch, 150, FlashOutOfSpace("plane 0 has no free blocks"))
        recorder = FlightRecorder()
        metrics = replay_trace(
            random_writes(300, span_pages=64), small_config(flight=recorder)
        )

        dump = recorder.last_dump
        assert dump["reason"].startswith("replay_aborted")
        assert metrics.aborted_at_request == 150
        assert metrics.n_requests == 150
        assert dump["metrics"]["requests"] == 150
        # The dump precedes finalisation (flash counters, utilisation);
        # the fields the record fold alone determines are final.
        summary = metrics.summary()
        for key in FOLDED_FIELDS:
            assert dump["metrics"][key] == summary[key], key

    def test_exception_past_the_first_chunk_dumps_every_request(self, monkeypatch):
        fail_submit_at(monkeypatch, 150, RuntimeError("injected"))
        recorder = FlightRecorder()
        with pytest.raises(RuntimeError, match="injected"):
            replay_trace(
                random_writes(300, span_pages=64), small_config(flight=recorder)
            )

        dump = recorder.last_dump
        assert dump["reason"] == "exception: RuntimeError: injected"
        assert dump["metrics"]["requests"] == 150


class TestCliExitCodes:
    def test_replay_with_faults_prints_durability(self, capsys):
        rc = main(
            [
                "replay",
                "ts_0",
                "--scale",
                SCALE,
                "--policy",
                "lru",
                "--fault-profile",
                "harsh",
                "--fault-seed",
                "3",
                "--power-loss-at",
                "10",
                "--capacitor-pages",
                "4",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit_ratio" in out
        assert "Durability" in out
        assert "harsh" in out
        assert "lost_writes" in out

    def test_aborted_replay_exits_with_distinct_code(self, monkeypatch, capsys):
        def aborted_replay(trace, config):
            metrics = replay_cache_only(trace, config)
            metrics.aborted_reason = "plane 0 has no free blocks"
            metrics.aborted_at_request = 3
            return metrics

        monkeypatch.setattr("repro.cli.replay_trace", aborted_replay)
        rc = main(["replay", "ts_0", "--scale", SCALE, "--policy", "lru"])
        assert rc == EXIT_ABORTED
        captured = capsys.readouterr()
        assert "aborted at request 3" in captured.err
        assert "no free blocks" in captured.err

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["replay", "ts_0", "--scale", SCALE, "--fault-profile", "nope"])
