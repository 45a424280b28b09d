"""Tests for the SSD controller (cache + FTL + timing integration)."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUCache
from repro.cache.bplru import BPLRUCache
from repro.obs.profile import PhaseProfiler
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController
from tests.conftest import R, W


def make_controller(cache_pages=8, policy_cls=LRUCache, profiler=None, **policy_kwargs):
    cfg = SSDConfig(
        n_channels=2,
        chips_per_channel=2,
        planes_per_chip=2,
        blocks_per_plane=32,
        pages_per_block=8,
    )
    policy = policy_cls(cache_pages, **policy_kwargs)
    return SSDController(
        cfg, policy, cache_service_ms_per_page=0.01, profiler=profiler
    )


class TestWrites:
    def test_write_absorbed_fast(self):
        c = make_controller()
        rec = c.submit(W(0, 2, t=0.0))
        assert rec.outcome.inserted_pages == 2
        assert rec.response_ms == pytest.approx(0.02)
        assert c.flushed_pages == 0

    def test_write_hit_updates_in_place(self):
        c = make_controller()
        c.submit(W(0, 2, t=0.0))
        rec = c.submit(W(0, 2, t=1.0))
        assert rec.outcome.page_hits == 2
        assert c.policy.occupancy() == 2

    def test_eviction_waits_for_transfers(self):
        c = make_controller(cache_pages=4)
        c.submit(W(0, 4, t=0.0))
        rec = c.submit(W(10, 1, t=1.0))  # must evict
        assert rec.outcome.flushes
        assert c.flushed_pages >= 1
        # Stall is transfer-scale (tens of us), not program-scale (2ms).
        assert 0.01 < rec.response_ms < 1.0

    def test_flush_lands_on_flash(self):
        c = make_controller(cache_pages=4)
        c.submit(W(0, 4, t=0.0))
        c.submit(W(10, 4, t=1.0))
        # The first write's pages were flushed and are now mapped.
        assert c.ftl.is_mapped(0)
        assert c.total_flash_writes == 4
        c.validate()


class TestReads:
    def test_read_hit_served_from_dram(self):
        c = make_controller()
        c.submit(W(5, 1, t=0.0))
        rec = c.submit(R(5, 1, t=1.0))
        assert rec.outcome.page_hits == 1
        assert rec.response_ms == pytest.approx(0.01)

    def test_read_miss_goes_to_flash(self):
        c = make_controller()
        rec = c.submit(R(100, 1, t=0.0))
        assert rec.outcome.read_miss_lpns == [100]
        # Flash read: 0.075ms cell + transfer.
        assert rec.response_ms >= 0.075

    def test_read_miss_not_cached(self):
        c = make_controller()
        c.submit(R(100, 1, t=0.0))
        assert not c.policy.contains(100)

    def test_mixed_read(self):
        c = make_controller()
        c.submit(W(0, 1, t=0.0))
        rec = c.submit(R(0, 2, t=1.0))
        assert rec.outcome.page_hits == 1
        assert rec.outcome.read_miss_lpns == [1]


class TestPinnedFlush:
    def test_bplru_flush_confined_to_one_channel(self):
        c = make_controller(cache_pages=8, policy_cls=BPLRUCache, pages_per_block=8)
        c.submit(W(0, 8, t=0.0))
        c.submit(W(100, 1, t=1.0))  # evicts block 0 (pinned)
        channels = {
            c.geometry.unpack(c.ftl.lookup(lpn)).channel for lpn in range(8)
        }
        assert len(channels) == 1

    def test_striped_flush_spreads_channels(self):
        c = make_controller(cache_pages=8, policy_cls=LRUCache)
        c.submit(W(0, 8, t=0.0))
        c.submit(W(100, 8, t=1.0))  # evicts 8 pages, striped
        channels = {
            c.geometry.unpack(c.ftl.lookup(lpn)).channel for lpn in range(8)
        }
        assert len(channels) == c.config.n_channels


class TestBPLRUPadding:
    """A padded BPLRU eviction reads the victim block's missing pages
    from flash, then programs the full block once they are in."""

    @staticmethod
    def _evict_partial_block(page_padding, profiled=False):
        c = make_controller(
            cache_pages=8,
            policy_cls=BPLRUCache,
            profiler=PhaseProfiler() if profiled else None,
            pages_per_block=8,
            page_padding=page_padding,
        )
        c.submit(W(0, 3, t=0.0))  # pages 0-2 of block 0
        rec = c.submit(W(16, 8, t=1.0))  # evicts block 0
        return c, rec

    @staticmethod
    def _flash_reads(c):
        return c.ftl.stats.host_reads + c.ftl.stats.unmapped_reads

    def test_padding_off_reads_nothing(self):
        c, rec = self._evict_partial_block(page_padding=False)
        assert rec.outcome.read_miss_lpns == []
        assert self._flash_reads(c) == 0
        assert c.flushed_pages == 3
        # Three pinned transfers on one bus gate the 8-page insertion.
        xfer = c.config.page_transfer_ms
        assert rec.response_ms == pytest.approx(3 * xfer + 8 * 0.01)

    @pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])
    def test_padding_reads_are_timed(self, profiled):
        off, rec_off = self._evict_partial_block(page_padding=False)
        on, rec_on = self._evict_partial_block(page_padding=True, profiled=profiled)
        padding = rec_on.outcome.read_miss_lpns
        assert padding == [3, 4, 5, 6, 7]
        assert self._flash_reads(on) - self._flash_reads(off) == len(padding)
        assert on.flushed_pages == 8
        # The padded block's eight transfers on its one channel start
        # once the reads are in, and the write waits for them.
        reads_end = make_controller().ftl.read_batch(padding, 1.0)
        cfg = on.config
        assert reads_end - 1.0 >= cfg.read_latency_ms + cfg.page_transfer_ms
        assert rec_on.response_ms == pytest.approx(
            reads_end - 1.0 + 8 * cfg.page_transfer_ms + 8 * 0.01
        )
        assert rec_on.response_ms > rec_off.response_ms
        if profiled:
            assert "read" in on.profiler.stats


class TestDrain:
    def test_drain_flushes_everything(self):
        c = make_controller()
        c.submit(W(0, 5, t=0.0))
        c.drain(now=10.0)
        assert c.policy.occupancy() == 0
        assert all(c.ftl.is_mapped(lpn) for lpn in range(5))

    def test_drain_empty_cache(self):
        c = make_controller()
        end = c.drain(now=3.0)
        assert end == 3.0


class TestOrderingContract:
    def test_monotone_submission_accepted(self):
        c = make_controller(cache_pages=4)
        for i in range(50):
            c.submit(W(i % 10, 1, t=float(i)))
        c.validate()
