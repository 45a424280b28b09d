"""Tests for the I/O request model and trace container."""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.traces.model import IORequest, OpType, Trace
from tests.conftest import R, W, make_trace


class TestIORequest:
    def test_basic_properties(self):
        r = IORequest(time=1.5, op=OpType.WRITE, lpn=10, npages=4)
        assert r.is_write and not r.is_read
        assert r.size_bytes == 16384
        assert r.size_kb == 16.0
        assert r.end_lpn == 14
        assert list(r.pages()) == [10, 11, 12, 13]

    def test_read_request(self):
        r = R(5, 2)
        assert r.is_read and not r.is_write

    def test_validation(self):
        with pytest.raises(ValueError):
            IORequest(time=-1.0, op=OpType.READ, lpn=0, npages=1)
        with pytest.raises(ValueError):
            IORequest(time=0.0, op=OpType.READ, lpn=-1, npages=1)
        with pytest.raises(ValueError):
            IORequest(time=0.0, op=OpType.READ, lpn=0, npages=0)

    def test_frozen(self):
        r = W(0, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.lpn = 5  # type: ignore[misc]

    def test_validation_messages_and_nan(self):
        with pytest.raises(ValueError, match="time must be non-negative, got -1.0"):
            IORequest(-1.0, OpType.READ, 0, 1)
        with pytest.raises(ValueError, match="npages must be positive, got nan"):
            IORequest(0.0, OpType.READ, 0, math.nan)
        # A NaN time is not negative: accepted, as by require_non_negative.
        assert math.isnan(IORequest(math.nan, OpType.READ, 0, 1).time)

    def test_replace_validates(self):
        r = IORequest(2.0, OpType.WRITE, 10, 4)
        assert dataclasses.replace(r, lpn=3) == IORequest(2.0, OpType.WRITE, 3, 4)
        with pytest.raises(ValueError, match="time"):
            dataclasses.replace(r, time=-1.0)

    def test_pickle_round_trip(self):
        r = IORequest(2.5, OpType.READ, 7, 3)
        back = pickle.loads(pickle.dumps(r))
        assert back == r and hash(back) == hash(r)
        assert repr(back) == repr(r)

    class TestFromSectors:
        def test_aligned(self):
            r = IORequest.from_sectors(0.0, OpType.WRITE, sector=8, nbytes=4096)
            assert r.lpn == 1 and r.npages == 1

        def test_straddles_page_boundary(self):
            # Sector 7 = byte 3584; 4096 bytes reach into page 1.
            r = IORequest.from_sectors(0.0, OpType.WRITE, sector=7, nbytes=4096)
            assert r.lpn == 0 and r.npages == 2

        def test_sub_page_write_rounds_up(self):
            r = IORequest.from_sectors(0.0, OpType.WRITE, sector=0, nbytes=512)
            assert r.lpn == 0 and r.npages == 1

        def test_large(self):
            r = IORequest.from_sectors(0.0, OpType.READ, sector=0, nbytes=65536)
            assert r.npages == 16

        def test_zero_bytes_rejected(self):
            with pytest.raises(ValueError):
                IORequest.from_sectors(0.0, OpType.READ, sector=0, nbytes=0)


class TestTrace:
    def test_iteration_and_indexing(self):
        t = make_trace([W(0), R(1), W(2)])
        assert len(t) == 3
        assert t[1].is_read
        assert [r.lpn for r in t] == [0, 1, 2]

    def test_time_order_enforced(self):
        with pytest.raises(ValueError, match="not sorted"):
            Trace("bad", [W(0, 1, 5.0), W(1, 1, 1.0)])

    def test_head(self):
        t = make_trace([W(i) for i in range(10)])
        h = t.head(3)
        assert len(h) == 3
        assert h.name.endswith("[:3]")

    def test_reads_writes_split(self):
        t = make_trace([W(0), R(1), W(2), R(3)])
        assert [r.lpn for r in t.writes()] == [0, 2]
        assert [r.lpn for r in t.reads()] == [1, 3]

    def test_footprint_counts_distinct_pages(self):
        t = make_trace([W(0, 4), W(2, 4), R(100, 1)])
        # Pages 0-3, 2-5, 100 -> distinct {0,1,2,3,4,5,100}.
        assert t.footprint_pages() == 7

    def test_max_lpn(self):
        t = make_trace([W(0, 4), W(10, 2)])
        assert t.max_lpn() == 11
        assert Trace("empty", []).max_lpn() == 0
