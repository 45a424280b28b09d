"""Tests for page-level LRU."""

from __future__ import annotations

import pytest

from repro.cache.lru import LRUCache
from tests.conftest import R, W


class TestBasics:
    def test_insert_and_contains(self):
        c = LRUCache(4)
        out = c.access(W(0, 2))
        assert out.inserted_pages == 2
        assert out.page_misses == 2
        assert c.contains(0) and c.contains(1)
        assert c.occupancy() == 2
        c.validate()

    def test_write_hit(self):
        c = LRUCache(4)
        c.access(W(0, 2))
        out = c.access(W(0, 2))
        assert out.page_hits == 2
        assert out.inserted_pages == 0
        assert c.occupancy() == 2

    def test_read_hit_and_miss(self):
        c = LRUCache(4)
        c.access(W(0, 1))
        out = c.access(R(0, 2))
        assert out.page_hits == 1
        assert out.read_miss_lpns == [1]
        assert c.occupancy() == 1  # reads never allocate

    def test_lru_eviction_order(self):
        c = LRUCache(3)
        c.access(W(0))
        c.access(W(1))
        c.access(W(2))
        out = c.access(W(3))  # evicts lpn 0
        assert [b.lpns for b in out.flushes] == [[0]]
        assert not c.contains(0) and c.contains(3)

    def test_hit_promotes(self):
        c = LRUCache(3)
        for lpn in (0, 1, 2):
            c.access(W(lpn))
        c.access(R(0))  # 0 becomes MRU
        out = c.access(W(3))  # evicts 1, not 0
        assert out.flushes[0].lpns == [1]
        assert c.contains(0)

    def test_evictions_are_single_page_unpinned(self):
        c = LRUCache(2)
        c.access(W(0, 2))
        out = c.access(W(5, 2))
        assert all(len(b) == 1 for b in out.flushes)
        assert all(b.pin_key is None for b in out.flushes)

    def test_capacity_never_exceeded(self):
        c = LRUCache(4)
        for i in range(20):
            c.access(W(i * 3, 3))
            assert c.occupancy() <= 4
            c.validate()

    def test_request_larger_than_cache(self):
        c = LRUCache(4)
        out = c.access(W(0, 10))
        assert c.occupancy() == 4
        assert out.inserted_pages == 10
        assert out.flushed_pages == 6
        # The last 4 pages written remain.
        assert all(c.contains(lpn) for lpn in (6, 7, 8, 9))

    def test_flush_all(self):
        c = LRUCache(8)
        c.access(W(0, 3))
        batch = c.flush_all()
        assert sorted(batch.lpns) == [0, 1, 2]
        assert c.occupancy() == 0
        c.validate()

    def test_flush_all_is_most_recent_first(self):
        c = LRUCache(8)
        c.access(W(0, 3))
        c.access(R(1))  # recency, oldest first: 0, 2, 1
        assert c.flush_all().lpns == [1, 2, 0]

    def test_metadata_accounting(self):
        c = LRUCache(8)
        c.access(W(0, 3))
        assert c.metadata_nodes() == 3
        assert c.metadata_bytes() == 3 * 12

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)
