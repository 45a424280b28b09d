"""Tests for replay warmup (metrics exclude the warmup prefix)."""

from __future__ import annotations

import pytest

from repro.sim import replay_closed_loop
from repro.sim.replay import (
    ReplayConfig,
    replay_cache_only,
    replay_trace,
    sized_ssd_for,
)
from repro.traces.model import Trace


def cfg(warmup=0, **kw):
    return ReplayConfig(
        policy="lru", cache_bytes=64 * 4096, warmup_requests=warmup, **kw
    )


def closed_loop(trace, config):
    """Closed-loop replay at queue depth 8."""
    return replay_closed_loop(trace, config, queue_depth=8)


class TestWarmup:
    def test_request_count_excludes_warmup(self, tiny_trace):
        m = replay_cache_only(tiny_trace, cfg(warmup=500))
        assert m.n_requests == len(tiny_trace) - 500

    def test_warm_metrics_cover_exactly_the_suffix(self, tiny_trace):
        cold = replay_cache_only(tiny_trace, cfg())
        warm = replay_cache_only(tiny_trace, cfg(warmup=1000))
        prefix_pages = sum(r.npages for r in list(tiny_trace)[:1000])
        assert warm.pages.total == cold.pages.total - prefix_pages

    def test_full_replay_flash_counters_exclude_warmup(self, tiny_trace):
        full = replay_trace(tiny_trace, cfg())
        warm = replay_trace(tiny_trace, cfg(warmup=1000))
        assert warm.flash_total_writes < full.flash_total_writes
        assert warm.host_flush_pages <= full.host_flush_pages

    def test_zero_warmup_is_default(self, tiny_trace):
        a = replay_cache_only(tiny_trace, cfg())
        b = replay_cache_only(tiny_trace, cfg(warmup=0))
        assert a.n_requests == b.n_requests == len(tiny_trace)
        assert a.hit_ratio == b.hit_ratio

    def test_warmup_longer_than_trace(self, tiny_trace):
        m = replay_cache_only(tiny_trace, cfg(warmup=10 ** 9))
        assert m.n_requests == 0
        assert m.hit_ratio == 0.0

    @pytest.mark.parametrize(
        "replay", [replay_trace, closed_loop], ids=["open_loop", "closed_loop"]
    )
    def test_device_counters_are_the_full_run_minus_the_prefix(
        self, tiny_trace, replay
    ):
        """Warm-up requests are left out of the request count, and the
        flash counters are the full replay's minus those of a replay of
        the warm-up prefix alone on the same device."""
        warm = 1000
        ssd = sized_ssd_for(tiny_trace)
        full = replay(tiny_trace, cfg(ssd=ssd))
        prefix = replay(Trace("prefix", list(tiny_trace)[:warm]), cfg(ssd=ssd))
        warmed = replay(tiny_trace, cfg(warmup=warm, ssd=ssd))
        assert warmed.n_requests == len(tiny_trace) - warm
        for counter in (
            "host_flush_pages",
            "gc_migrated_pages",
            "gc_erases",
            "flash_total_writes",
        ):
            assert getattr(warmed, counter) == (
                getattr(full, counter) - getattr(prefix, counter)
            ), counter
        assert warmed.flash_total_writes > 0
