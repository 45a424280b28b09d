"""Tests for the closed-loop replay driver."""

from __future__ import annotations

import hashlib

import pytest

from repro.sim import replay_closed_loop
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.controller import SSDController


def cfg(**kw):
    return ReplayConfig(policy="lru", cache_bytes=64 * 4096, **kw)


#: Summary keys the closed loop derives as completion minus arrival,
#: which can differ from the open loop's response time in the last bit.
RESPONSE_KEYS = ("mean_response_ms", "p99_response_ms", "total_response_ms")


class TestClosedLoop:
    @pytest.mark.parametrize(
        "mapping_cache_bytes", [None, 4096], ids=["resident", "dftl"]
    )
    def test_unbounded_equals_open_loop(self, tiny_trace, mapping_cache_bytes):
        """Unbounded queue depth is open-loop replay: every summary key,
        the utilisation fields, the eviction digest and the mapping-cache
        configuration match."""
        config = cfg(mapping_cache_bytes=mapping_cache_bytes, digest_evictions=True)
        open_loop = replay_trace(tiny_trace, config)
        closed = replay_closed_loop(tiny_trace, config, queue_depth=None)
        want, got = open_loop.summary(), closed.summary()
        for key in RESPONSE_KEYS:
            assert got.pop(key) == pytest.approx(want.pop(key)), key
        assert got == want
        assert closed.max_plane_utilisation == open_loop.max_plane_utilisation
        assert closed.mean_bus_utilisation == open_loop.mean_bus_utilisation
        assert closed.eviction_digest == open_loop.eviction_digest
        assert closed.eviction_digest not in ("", hashlib.sha256().hexdigest())

    def test_bounded_qd_never_faster(self, tiny_trace):
        deep = replay_closed_loop(tiny_trace, cfg(), queue_depth=64)
        shallow = replay_closed_loop(tiny_trace, cfg(), queue_depth=1)
        # Shallower queues add serialization delay, never remove it.
        assert shallow.total_response_ms >= deep.total_response_ms * 0.999

    def test_hit_behaviour_independent_of_qd(self, tiny_trace):
        a = replay_closed_loop(tiny_trace, cfg(), queue_depth=1)
        b = replay_closed_loop(tiny_trace, cfg(), queue_depth=16)
        assert a.hit_ratio == b.hit_ratio
        assert a.flash_total_writes == b.flash_total_writes

    def test_qd1_serialises(self):
        """With QD=1 no request overlaps: each response >= pure service."""
        from repro.traces.model import Trace
        from tests.conftest import R

        # Burst of reads all arriving at t=0 to distinct cold addresses
        # (built directly: make_trace would auto-space the arrivals).
        t = Trace("burst", [R(i * 100, 1, t=0.0) for i in range(8)])
        m = replay_closed_loop(t, cfg(), queue_depth=1)
        # Each read takes >= 0.075ms cell time; the 8th waits ~7 service
        # times. Mean must exceed the single-read service time clearly.
        assert m.mean_response_ms > 0.075 * 3

    def test_invalid_qd(self, tiny_trace):
        with pytest.raises(ValueError):
            replay_closed_loop(tiny_trace, cfg(), queue_depth=0)

    def test_requests_counted(self, tiny_trace):
        m = replay_closed_loop(tiny_trace, cfg(), queue_depth=8)
        assert m.n_requests == len(tiny_trace)

    def test_drain_flushes_at_last_submission(self, tiny_trace, monkeypatch):
        """``drain_at_end`` flushes the cache once, at the time the last
        request was submitted, and flushes the pages the open loop's
        drain does (LRU's hits do not depend on timing)."""
        submitted, drained = [], []
        real_submit, real_drain = SSDController.submit, SSDController.drain

        def submit(self, request):
            submitted.append(request.time)
            return real_submit(self, request)

        def drain(self, now):
            drained.append(now)
            return real_drain(self, now)

        monkeypatch.setattr(SSDController, "submit", submit)
        monkeypatch.setattr(SSDController, "drain", drain)
        plain = replay_closed_loop(tiny_trace, cfg(), queue_depth=1)
        open_loop = replay_trace(tiny_trace, cfg(drain_at_end=True))
        submitted.clear()
        drained.clear()
        m = replay_closed_loop(tiny_trace, cfg(drain_at_end=True), queue_depth=1)
        assert drained == [submitted[-1]]
        # Queueing pushed the last submission past its trace arrival.
        assert submitted[-1] > tiny_trace[len(tiny_trace) - 1].time
        assert m.host_flush_pages > plain.host_flush_pages
        assert m.host_flush_pages == open_loop.host_flush_pages
