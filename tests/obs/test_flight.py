"""Flight recorder: ring buffer, dump schema, replay integration."""

from __future__ import annotations

import json

import pytest

from repro.obs.events import CacheHit, DegradedModeEntered
from repro.obs.flight import (
    DEFAULT_CAPACITY,
    FLIGHT_DUMP_VERSION,
    FlightRecorder,
    activate,
    active_recorder,
    deactivate,
    load_flight_dump,
    write_flight_dump,
)
from repro.sim import replay_closed_loop
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.workloads import get_workload
from tests.sim.test_golden_metrics import CACHE_BYTES as GOLDEN_CACHE_BYTES
from tests.sim.test_golden_metrics import SSD as GOLDEN_SSD
from tests.sim.test_golden_metrics import _golden_trace

SCALE = 1 / 256
CACHE = 64 * 4096


def _hit(i: int) -> CacheHit:
    return CacheHit(time=float(i), req_id=i, lpn=i, list_name="drl")


class TestRingBuffer:
    def test_keeps_only_last_capacity_events(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.emit(_hit(i))
        assert len(rec.events) == 4
        assert [e.req_id for e in rec.events] == [6, 7, 8, 9]
        assert rec.n_events == 10
        assert rec.counts["cache_hit"] == 10

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_is_a_tracer(self):
        rec = FlightRecorder()
        assert rec.enabled is True
        rec.emit(_hit(0))
        rec.close()  # no-op, must not raise

    def test_watches_for_degraded_entry(self):
        rec = FlightRecorder()
        assert rec.degraded_reason is None
        rec.emit(DegradedModeEntered(1.0, 2, "spares exhausted"))
        assert rec.degraded_reason == "spares exhausted"


class TestDump:
    def test_dump_schema(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.emit(_hit(i))
        doc = rec.dump("test_reason", context={"shard": 1})
        assert doc["version"] == FLIGHT_DUMP_VERSION
        assert doc["reason"] == "test_reason"
        assert doc["total_events"] == 5
        assert doc["captured_events"] == 3
        assert doc["dropped_events"] == 2
        assert doc["event_counts"] == {"cache_hit": 5}
        assert [e["req_id"] for e in doc["events"]] == [2, 3, 4]
        assert doc["context"] == {"shard": 1}
        json.dumps(doc)  # must be JSON-serialisable

    def test_dump_embeds_metrics_snapshot(self):
        class _Stub:
            aborted = True
            aborted_reason = "boom"
            aborted_at_request = 7
            durability = None

            @staticmethod
            def summary():
                return {"hit_ratio": 0.5}

        doc = FlightRecorder().dump("abort", metrics=_Stub())
        assert doc["metrics"]["hit_ratio"] == 0.5
        assert doc["metrics"]["aborted_reason"] == "boom"
        assert doc["metrics"]["aborted_at_request"] == 7

    def test_record_dump_first_wins(self):
        rec = FlightRecorder()
        first = rec.record_dump("first")
        second = rec.record_dump("second")
        assert second is first
        assert rec.last_dump["reason"] == "first"

    def test_dump_keeps_recording(self):
        rec = FlightRecorder()
        rec.emit(_hit(0))
        rec.dump("peek")
        rec.emit(_hit(1))
        assert rec.n_events == 2

    def test_write_and_load_round_trip(self, tmp_path):
        rec = FlightRecorder()
        rec.emit(_hit(0))
        dump = rec.dump("round_trip")
        path = tmp_path / "sub" / "flightdump.json"
        assert write_flight_dump(dump, str(path)) == str(path)
        assert load_flight_dump(str(path)) == dump
        # Atomic discipline: no tmp litter next to the dump.
        assert [p.name for p in path.parent.iterdir()] == ["flightdump.json"]


class TestAmbientRecorder:
    def test_activate_deactivate(self):
        assert active_recorder() is None
        rec = FlightRecorder()
        try:
            assert activate(rec) is rec
            assert active_recorder() is rec
        finally:
            deactivate()
        assert active_recorder() is None
        deactivate()  # idempotent


class TestReplayIntegration:
    def test_recorder_captures_replay_events(self):
        trace = get_workload("ts_0", SCALE)
        rec = FlightRecorder(capacity=64)
        replay_trace(
            trace, ReplayConfig(policy="lru", cache_bytes=CACHE, flight=rec)
        )
        assert rec.n_events > 0
        assert len(rec.events) == 64
        assert rec.last_dump is None  # clean run: nothing dump-worthy

    def test_recorder_does_not_change_summary(self):
        trace = get_workload("ts_0", SCALE)
        base = replay_trace(
            trace, ReplayConfig(policy="lru", cache_bytes=CACHE)
        )
        with_rec = replay_trace(
            trace,
            ReplayConfig(
                policy="lru", cache_bytes=CACHE, flight=FlightRecorder()
            ),
        )
        assert with_rec.summary() == base.summary()

    def test_ambient_recorder_is_picked_up(self):
        trace = get_workload("ts_0", SCALE)
        rec = FlightRecorder()
        activate(rec)
        try:
            replay_trace(
                trace, ReplayConfig(policy="lru", cache_bytes=CACHE)
            )
        finally:
            deactivate()
        assert rec.n_events > 0

    @pytest.mark.parametrize(
        "replay",
        [replay_trace, lambda t, c: replay_closed_loop(t, c, queue_depth=8)],
        ids=["open_loop", "closed_loop"],
    )
    def test_degraded_entry_records_dump(self, replay):
        """The golden ``harsh`` device latches read-only mode part-way
        through and limps home: the completed replay still leaves a
        degraded-entry dump."""
        rec = FlightRecorder()
        config = ReplayConfig(
            policy="lru",
            cache_bytes=GOLDEN_CACHE_BYTES,
            ssd=GOLDEN_SSD,
            fault_profile="harsh",
            flight=rec,
        )
        metrics = replay(_golden_trace(), config)
        assert not metrics.aborted
        assert metrics.durability is not None and metrics.durability.degraded
        assert rec.last_dump is not None
        assert rec.last_dump["reason"].startswith("degraded_mode_entered: ")
        assert rec.last_dump["events"]

    def test_exception_mid_replay_records_dump(self):
        class _Bomb:
            enabled = True

            def __init__(self, fuse: int) -> None:
                self.fuse = fuse
                self.seen = 0

            def emit(self, event) -> None:
                self.seen += 1
                if self.seen >= self.fuse:
                    raise RuntimeError("boom")

            def close(self) -> None:
                pass

        trace = get_workload("ts_0", SCALE)
        rec = FlightRecorder()
        config = ReplayConfig(
            policy="lru", cache_bytes=CACHE, tracer=_Bomb(500), flight=rec
        )
        with pytest.raises(RuntimeError, match="boom"):
            replay_trace(trace, config)
        assert rec.last_dump is not None
        assert rec.last_dump["reason"].startswith("exception: RuntimeError")
        assert rec.last_dump["events"]
        assert "metrics" in rec.last_dump
