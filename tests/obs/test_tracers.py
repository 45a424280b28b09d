"""Unit tests for the tracer implementations and event serialisation."""

from __future__ import annotations

import io
import json

from repro.obs.events import (
    EVENT_KINDS,
    BlockRetired,
    CacheHit,
    CacheMiss,
    DegradedModeEntered,
    DowngradeMerge,
    Evict,
    FaultInjected,
    FlashWrite,
    GcErase,
    GcMigrate,
    Insert,
    ListMove,
    PowerLoss,
    ReadRetry,
    RecoveryComplete,
    Split,
    event_to_dict,
)
from repro.obs.tracer import (
    NULL_TRACER,
    CountingTracer,
    JsonlTracer,
    NullTracer,
    TeeTracer,
    Tracer,
)

ONE_OF_EACH = [
    CacheHit(1, 0, 10, "lru"),
    CacheMiss(2, 0, 11, True),
    Insert(3, 0, 11, "lru"),
    Split(4, 1, 12, 0),
    DowngradeMerge(5, 1, 0, (12, 13)),
    Evict(6, 1, (10, 11), "IRL"),
    FlashWrite(7.5, 11, 42, 3),
    GcMigrate(8.5, 11, 42, 99, 3),
    GcErase(9.5, 3, 7, 2),
    ListMove(10, 1, "IRL", "SRL", 4),
    FaultInjected(11.0, "program", 3, 7),
    ReadRetry(12.0, 11, 3, 2, True),
    BlockRetired(13.0, 3, 7, "program_fail", 1),
    PowerLoss(14.0, 40, 8, 32),
    RecoveryComplete(15.0, 50.0, 128, 120),
    DegradedModeEntered(16.0, 3, "plane 3: no free blocks"),
]


class TestEvents:
    def test_every_kind_registered(self):
        assert sorted(EVENT_KINDS) == sorted(type(e).kind for e in ONE_OF_EACH)
        for event in ONE_OF_EACH:
            assert EVENT_KINDS[event.kind] is type(event)

    def test_event_to_dict_round_trips(self):
        for event in ONE_OF_EACH:
            d = event_to_dict(event)
            kind = d.pop("kind")
            cls = EVENT_KINDS[kind]
            # Tuples become lists in the dict form; convert back.
            rebuilt = cls(
                **{
                    k: tuple(v) if isinstance(v, list) else v
                    for k, v in d.items()
                }
            )
            assert rebuilt == event

    def test_dict_form_is_json_serialisable(self):
        for event in ONE_OF_EACH:
            json.dumps(event_to_dict(event))


class TestNullTracer:
    def test_disabled_and_inert(self):
        t = NullTracer()
        assert t.enabled is False
        t.emit(ONE_OF_EACH[0])  # must not raise even if called
        t.close()
        t.close()

    def test_shared_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled


class TestCountingTracer:
    def test_counts_per_kind(self):
        t = CountingTracer()
        for event in ONE_OF_EACH:
            t.emit(event)
        assert t.hits == 1
        assert t.misses == 1
        assert t.inserts == 1
        assert t.evictions == 1
        assert t.flash_writes == 1
        assert t.evicted_pages == 2  # the one Evict carried two pages
        assert t.counts["gc_erase"] == 1
        assert not t.events  # keep_events defaults to False

    def test_keep_events_retains_stream(self):
        t = CountingTracer(keep_events=True)
        for event in ONE_OF_EACH:
            t.emit(event)
        assert t.events == ONE_OF_EACH

    def test_summary_is_plain_dict(self):
        t = CountingTracer()
        t.emit(CacheHit(1, 0, 5))
        t.emit(CacheHit(2, 0, 6))
        assert t.summary() == {"cache_hit": 2, "evicted_pages": 0}


class TestJsonlTracer:
    def test_round_trip_via_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as t:
            for event in ONE_OF_EACH:
                t.emit(event)
            assert t.n_events == len(ONE_OF_EACH)
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(line) for line in f]
        assert [d["kind"] for d in lines] == [e.kind for e in ONE_OF_EACH]
        assert lines == [event_to_dict(e) for e in ONE_OF_EACH]

    def test_close_is_idempotent(self, tmp_path):
        t = JsonlTracer(str(tmp_path / "trace.jsonl"))
        t.emit(ONE_OF_EACH[0])
        t.close()
        t.close()

    def test_caller_supplied_file_stays_open(self):
        buf = io.StringIO()
        t = JsonlTracer(buf)
        t.emit(ONE_OF_EACH[0])
        t.close()
        assert not buf.closed
        assert json.loads(buf.getvalue()) == event_to_dict(ONE_OF_EACH[0])


class TestTeeTracer:
    def test_fans_out_to_children(self):
        a, b = CountingTracer(), CountingTracer()
        tee = TeeTracer(a, b)
        assert tee.enabled
        tee.emit(CacheHit(1, 0, 5))
        assert a.hits == b.hits == 1

    def test_disabled_children_are_skipped(self):
        counting = CountingTracer()
        tee = TeeTracer(NullTracer(), counting)
        assert tee.enabled  # one enabled child is enough
        tee.emit(CacheHit(1, 0, 5))
        assert counting.hits == 1

    def test_all_disabled_means_disabled(self):
        assert not TeeTracer(NullTracer(), NullTracer()).enabled

    def test_close_propagates(self, tmp_path):
        jsonl = JsonlTracer(str(tmp_path / "t.jsonl"))
        tee = TeeTracer(jsonl, CountingTracer())
        tee.emit(CacheHit(1, 0, 5))
        tee.close()
        assert jsonl._file is None  # closed


class TestProtocol:
    def test_implementations_satisfy_protocol(self, tmp_path):
        instances = [
            NullTracer(),
            CountingTracer(),
            JsonlTracer(str(tmp_path / "p.jsonl")),
            TeeTracer(CountingTracer()),
        ]
        for tracer in instances:
            assert isinstance(tracer, Tracer)
            tracer.close()
