"""Tests for the page-level FTL."""

from __future__ import annotations

import pytest

from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashArray, PageState
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import ResourceTimelines


def make_stack(blocks_per_plane=16, **cfg_kwargs):
    cfg = SSDConfig(
        n_channels=2,
        chips_per_channel=2,
        planes_per_chip=2,
        blocks_per_plane=blocks_per_plane,
        pages_per_block=4,
        **cfg_kwargs,
    )
    geo = Geometry(cfg)
    flash = FlashArray(cfg, geo)
    res = ResourceTimelines(cfg, geo)
    gc = GarbageCollector(cfg, geo, flash, res)
    return cfg, geo, flash, res, gc, PageFTL(cfg, geo, flash, res, gc)


class TestMapping:
    def test_write_maps_lpn(self):
        *_rest, ftl = make_stack()
        ftl.write_page(42, 0.0)
        assert ftl.is_mapped(42)
        assert ftl.lookup(42) is not None
        assert ftl.mapped_count() == 1
        ftl.validate()

    def test_rewrite_invalidates_old_copy(self):
        _cfg, geo, flash, _res, _gc, ftl = make_stack()
        ftl.write_page(42, 0.0)
        old = ftl.lookup(42)
        ftl.write_page(42, 1.0)
        new = ftl.lookup(42)
        assert new != old
        assert flash.page_state[old] == PageState.INVALID
        assert flash.page_state[new] == PageState.VALID
        ftl.validate()

    def test_unmapped_lookup(self):
        *_rest, ftl = make_stack()
        assert ftl.lookup(7) is None
        assert not ftl.is_mapped(7)


class TestStriping:
    def test_consecutive_writes_rotate_channels_first(self):
        cfg, geo, *_rest, ftl = make_stack()
        for i in range(4):
            ftl.write_page(i, 0.0)
        channels = [geo.unpack(ftl.lookup(i)).channel for i in range(4)]
        # Channel rotates fastest: the first two writes hit different
        # channels (this stack has 2 channels).
        assert channels[0] != channels[1]

    def test_stripe_covers_all_planes(self):
        cfg, geo, *_rest, ftl = make_stack()
        n = cfg.n_planes
        for i in range(n):
            ftl.write_page(i, 0.0)
        used = {geo.plane_of_ppn(ftl.lookup(i)) for i in range(n)}
        assert used == set(range(n))

    def test_pinned_plane_honoured(self):
        cfg, geo, *_rest, ftl = make_stack()
        for i in range(6):
            ftl.write_page(i, 0.0, plane=3)
        assert all(geo.plane_of_ppn(ftl.lookup(i)) == 3 for i in range(6))

    def test_pinned_channel_for_stable(self):
        *_rest, ftl = make_stack()
        assert ftl.pinned_channel_for(5) == ftl.pinned_channel_for(5)

    def test_planes_of_channel(self):
        cfg, *_rest, ftl = make_stack()
        planes = ftl.planes_of_channel(0)
        assert len(planes) == cfg.chips_per_channel * cfg.planes_per_chip
        res = ResourceTimelines(cfg, Geometry(cfg))
        assert all(res.channel_of_plane(p) == 0 for p in planes)

        # Every channel of a non-square geometry, in the exact
        # chip-major, plane-minor order; the list is built once.
        cfg = SSDConfig(
            n_channels=3,
            chips_per_channel=2,
            planes_per_chip=4,
            blocks_per_plane=16,
            pages_per_block=4,
        )
        geo = Geometry(cfg)
        flash = FlashArray(cfg, geo)
        res = ResourceTimelines(cfg, geo)
        ftl = PageFTL(cfg, geo, flash, res, GarbageCollector(cfg, geo, flash, res))
        expected = [
            [0, 1, 2, 3, 4, 5, 6, 7],
            [8, 9, 10, 11, 12, 13, 14, 15],
            [16, 17, 18, 19, 20, 21, 22, 23],
        ]
        for channel, want in enumerate(expected):
            planes = ftl.planes_of_channel(channel)
            assert planes == want
            assert ftl.planes_of_channel(channel) is planes
            first_chip = 2 * channel
            assert [geo.chip_of_plane(p) for p in planes] == (
                [first_chip] * 4 + [first_chip + 1] * 4
            )
            assert [p % cfg.planes_per_chip for p in planes] == [0, 1, 2, 3] * 2
            assert all(res.channel_of_plane(p) == channel for p in planes)


class TestReads:
    def test_mapped_read_hits_owning_plane(self):
        cfg, geo, _flash, res, _gc, ftl = make_stack()
        ftl.write_page(10, 0.0)
        plane = geo.plane_of_ppn(ftl.lookup(10))
        before = res.plane_free[plane]
        ftl.read_page(10, 100.0)
        assert res.plane_free[plane] > max(before, 100.0)
        assert ftl.stats.host_reads == 1

    def test_unmapped_read_costs_time(self):
        *_rest, ftl = make_stack()
        op = ftl.read_page(999, 0.0)
        assert op.end > 0.0
        assert ftl.stats.unmapped_reads == 1
        # No mapping created.
        assert not ftl.is_mapped(999)


class TestRelocate:
    """Page relocation through ``PageFTL.migrate_block``, the one
    migration loop GC and the bad-block rescue share."""

    def test_relocate_moves_mapping(self):
        _cfg, geo, flash, _res, _gc, ftl = make_stack()
        ftl.write_page(5, 0.0)
        old = ftl.lookup(5)
        block, plane = geo.block_of_ppn(old), geo.plane_of_ppn(old)
        # migrate_block moves pages out of a block that is no longer a
        # write point (as the rescue path does).
        flash.detach_write_point(block)
        end = ftl.migrate_block(block, plane, 1.0)
        new = ftl.lookup(5)
        assert new != old
        assert flash.page_state[old] == PageState.INVALID
        assert end > 1.0
        ftl.validate()

    def test_relocate_dead_page_rejected(self):
        _cfg, _geo, flash, _res, _gc, ftl = make_stack()
        # A valid page the FTL never mapped: programmed behind its back.
        flash.program(flash.allocate_page(0))
        with pytest.raises(ValueError, match="no live LPN"):
            ftl.migrate_block(0, 0, 0.0)


class TestTimelines:
    def test_event_driven_timelines_rejected(self):
        # The write and migration loops inline ResourceTimelines'
        # arithmetic; the event-driven cross-check scheduler would be
        # bypassed, so the FTL refuses it up front.
        from repro.ssd.eventsim import EventDrivenTimelines

        cfg, geo, flash, res, gc, _ftl = make_stack()
        with pytest.raises(TypeError, match="EventDrivenTimelines"):
            PageFTL(cfg, geo, flash, EventDrivenTimelines(cfg, geo), gc)


class TestGCTrigger:
    def test_gc_fires_when_plane_fills(self):
        # 16 blocks/plane x 4 pages; rewrite a working set confined to
        # plane 0 until the free ratio crosses the 10% threshold.
        cfg, geo, flash, res, gc, ftl = make_stack(blocks_per_plane=16)
        for i in range(300):
            ftl.write_page(i % 8, float(i), plane=0)
        assert gc.stats.blocks_erased > 0
        assert flash.free_ratio(0) >= cfg.gc_threshold
        ftl.validate()
        flash.validate()
