"""Tests for the trace replay drivers."""

from __future__ import annotations

import gc

import pytest

from repro.cache.registry import PAPER_COMPARISON
from repro.sim.replay import (
    FOLD_CHUNK,
    METADATA_SAMPLE_INTERVAL,
    ReplayConfig,
    replay_cache_only,
    replay_trace,
    sized_ssd_for,
    written_footprint,
)
from repro.traces.model import Trace
from repro.traces.workloads import get_workload, scaled_cache_bytes
from tests.conftest import R, W, make_trace


class TestWrittenFootprint:
    def test_counts_distinct_write_pages(self):
        t = make_trace([W(0, 4), W(2, 4), R(100, 50)])
        assert written_footprint(t) == 6  # pages 0-5; reads ignored

    def test_empty(self):
        assert written_footprint(Trace("e", [])) == 0


class TestSizedSSD:
    def test_covers_trace(self, tiny_trace):
        cfg = sized_ssd_for(tiny_trace)
        assert cfg.total_pages >= written_footprint(tiny_trace) * 1.4

    def test_respects_base_geometry(self, tiny_trace):
        from repro.ssd.config import SSDConfig

        base = SSDConfig(n_channels=4)
        cfg = sized_ssd_for(tiny_trace, base=base)
        assert cfg.n_channels == 4


class TestReplayConfig:
    def test_cache_pages(self):
        assert ReplayConfig(cache_bytes=1 << 20).cache_pages == 256

    def test_rejects_sub_page_cache(self):
        with pytest.raises(ValueError):
            _ = ReplayConfig(cache_bytes=1000).cache_pages


class TestReplayTrace:
    def test_end_to_end(self, tiny_trace):
        m = replay_trace(tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096))
        assert m.n_requests == len(tiny_trace)
        assert 0.0 < m.hit_ratio < 1.0
        assert m.mean_response_ms > 0.0
        assert m.flash_total_writes > 0
        assert m.trace_name == tiny_trace.name
        assert m.policy_name == "lru"

    def test_deterministic(self, tiny_trace):
        cfg = ReplayConfig(policy="reqblock", cache_bytes=64 * 4096)
        a = replay_trace(tiny_trace, cfg)
        b = replay_trace(tiny_trace, cfg)
        assert a.hit_ratio == b.hit_ratio
        assert a.total_response_ms == b.total_response_ms
        assert a.flash_total_writes == b.flash_total_writes

    def test_policy_kwargs_forwarded(self, tiny_trace):
        base = ReplayConfig(policy="reqblock", cache_bytes=64 * 4096)
        tweaked = ReplayConfig(
            policy="reqblock",
            cache_bytes=64 * 4096,
            policy_kwargs={"delta": 1},
        )
        assert (
            replay_trace(tiny_trace, base).hit_ratio
            != replay_trace(tiny_trace, tweaked).hit_ratio
        )

    def test_drain_at_end(self, tiny_trace):
        no_drain = replay_trace(
            tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096)
        )
        drain = replay_trace(
            tiny_trace,
            ReplayConfig(policy="lru", cache_bytes=64 * 4096, drain_at_end=True),
        )
        assert drain.flash_total_writes > no_drain.flash_total_writes

    def test_metadata_sampled(self, tiny_trace):
        m = replay_trace(tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096))
        assert m.metadata_bytes.count > 0
        assert m.mean_metadata_kb > 0


class TestCacheOnlyReplay:
    def test_hit_behaviour_matches_full_replay(self, tiny_trace):
        cfg = ReplayConfig(policy="reqblock", cache_bytes=64 * 4096)
        fast = replay_cache_only(tiny_trace, cfg)
        full = replay_trace(tiny_trace, cfg)
        assert fast.hit_ratio == full.hit_ratio
        assert fast.eviction_count == full.eviction_count
        assert fast.mean_eviction_pages == full.mean_eviction_pages
        assert fast.host_flush_pages == full.host_flush_pages

    def test_no_timing(self, tiny_trace):
        m = replay_cache_only(
            tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096)
        )
        assert m.total_response_ms == 0.0

    def test_list_log_recorded_for_reqblock(self):
        from repro.traces.workloads import get_workload

        trace = get_workload("ts_0", 1 / 64)  # > 10k requests
        m = replay_cache_only(
            trace, ReplayConfig(policy="reqblock", cache_bytes=64 * 4096)
        )
        assert m.list_log, "expected Fig-13 samples for reqblock"
        idx, counts = m.list_log[0]
        assert idx == 10_000
        assert set(counts) == {"IRL", "SRL", "DRL"}

    def test_list_log_absent_for_other_policies(self, tiny_trace):
        m = replay_cache_only(
            tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096)
        )
        assert m.list_log == []


class TestFastPathEquivalence:
    """The fast path must agree with the timed path on everything the
    cache controls (``replay_cache_only``'s docstring points here)."""

    @pytest.mark.parametrize("policy", ["lru", "bplru", "vbbms", "reqblock"])
    def test_hit_counts_agree(self, tiny_trace, policy):
        cfg = ReplayConfig(policy=policy, cache_bytes=64 * 4096)
        fast = replay_cache_only(tiny_trace, cfg)
        full = replay_trace(tiny_trace, cfg)
        assert fast.pages.hits == full.pages.hits
        assert fast.pages.total == full.pages.total
        assert fast.read_pages.hits == full.read_pages.hits
        assert fast.write_pages.hits == full.write_pages.hits
        assert fast.eviction_count == full.eviction_count

    def test_fast_path_response_fields_stay_zero(self, tiny_trace):
        m = replay_cache_only(
            tiny_trace, ReplayConfig(policy="reqblock", cache_bytes=64 * 4096)
        )
        assert m.total_response_ms == 0.0
        assert m.mean_response_ms == 0.0
        assert m.response_percentile(0.99) == 0.0

    @pytest.mark.parametrize("policy", ["lru", "reqblock"])
    def test_traced_loop_matches_untraced_loop(self, tiny_trace, policy):
        """A policy's one access loop emits events only when traced;
        emitting them must not change its decisions."""
        from repro.obs.tracer import CountingTracer

        cfg = ReplayConfig(policy=policy, cache_bytes=64 * 4096)
        plain = replay_cache_only(tiny_trace, cfg)
        tracer = CountingTracer()
        traced = replay_cache_only(
            tiny_trace,
            ReplayConfig(policy=policy, cache_bytes=64 * 4096, tracer=tracer),
        )
        assert traced.pages.hits == plain.pages.hits == tracer.hits
        assert traced.eviction_count == plain.eviction_count == tracer.evictions
        assert traced.host_flush_pages == plain.host_flush_pages


class TestUtilisationReporting:
    def test_full_replay_reports_utilisation(self, tiny_trace):
        m = replay_trace(tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096))
        assert 0.0 < m.mean_plane_utilisation <= 1.0
        assert m.mean_plane_utilisation <= m.max_plane_utilisation <= 1.0
        assert 0.0 <= m.mean_bus_utilisation <= 1.0

    def test_cache_only_replay_has_no_utilisation(self, tiny_trace):
        m = replay_cache_only(
            tiny_trace, ReplayConfig(policy="lru", cache_bytes=64 * 4096)
        )
        assert m.mean_plane_utilisation == 0.0


class TestChunkedFold:
    def test_chunk_divides_the_metadata_interval(self):
        assert METADATA_SAMPLE_INTERVAL % FOLD_CHUNK == 0

    @pytest.mark.parametrize("policy", PAPER_COMPARISON)
    def test_replay_runs_few_cyclic_collections(self, policy):
        """A replay keeps each chunk's outcomes alive until it folds
        them, so a chunk that outgrew the generation-0 threshold (700
        net allocations) would set off a collection every chunk or two:
        a chunk of 256 runs 111-234 per replay of this trace, one of 64
        at most one."""
        scale = 1 / 64
        trace = get_workload("src1_2", scale)
        assert len(trace) >= 20_000
        config = ReplayConfig(policy=policy, cache_bytes=scaled_cache_bytes(16, scale))

        def collections() -> int:
            return sum(generation["collections"] for generation in gc.get_stats())

        gc.collect()
        before = collections()
        replay_trace(trace, config)
        assert collections() - before <= 2
