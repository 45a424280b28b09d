"""Tests for replay metric aggregation."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import AccessOutcome, FlushBatch
from repro.sim.metrics import ReplayMetrics, fold_eviction_digest
from repro.ssd.controller import RequestRecord
from tests.conftest import R, W


def record(hits=0, misses=0, flushes=(), resp=1.0, read_lpns=()):
    out = AccessOutcome(
        page_hits=hits,
        page_misses=misses,
        read_miss_lpns=list(read_lpns),
        flushes=[FlushBatch(list(l)) for l in flushes],
    )
    return RequestRecord(response_ms=resp, outcome=out)


class TestRecording:
    def test_hit_ratio(self):
        m = ReplayMetrics()
        m.record(W(0, 4), record(hits=3, misses=1))
        m.record(R(0, 4), record(hits=1, misses=3))
        assert m.hit_ratio == pytest.approx(0.5)
        assert m.write_pages.ratio == pytest.approx(0.75)
        assert m.read_pages.ratio == pytest.approx(0.25)

    def test_response_split_by_type(self):
        m = ReplayMetrics()
        m.record(W(0), record(resp=2.0))
        m.record(R(0), record(resp=4.0))
        assert m.mean_response_ms == pytest.approx(3.0)
        assert m.write_response_ms.mean == pytest.approx(2.0)
        assert m.read_response_ms.mean == pytest.approx(4.0)
        assert m.total_response_ms == pytest.approx(6.0)

    def test_eviction_histogram(self):
        m = ReplayMetrics()
        m.record(W(0), record(flushes=[[1, 2, 3], [4]]))
        m.record(W(1), record(flushes=[[5, 6]]))
        assert m.eviction_count == 3
        assert m.mean_eviction_pages == pytest.approx(2.0)

    def test_empty_flush_batches_ignored(self):
        m = ReplayMetrics()
        m.record(W(0), record(flushes=[[]]))
        assert m.eviction_count == 0
        assert m.mean_eviction_pages == 0.0

    def test_metadata_kb(self):
        m = ReplayMetrics()
        m.metadata_bytes.add(2048)
        m.metadata_bytes.add(4096)
        assert m.mean_metadata_kb == pytest.approx(3.0)
        assert m.max_metadata_kb == pytest.approx(4.0)
        assert ReplayMetrics().max_metadata_kb == 0.0

    def test_summary_keys(self):
        m = ReplayMetrics(trace_name="t", policy_name="lru", cache_pages=10)
        m.record(W(0), record(hits=1, misses=0))
        s = m.summary()
        assert s["trace"] == "t"
        assert s["policy"] == "lru"
        assert s["hit_ratio"] == 1.0
        assert s["requests"] == 1
        for key in ("mean_response_ms", "evictions", "flash_total_writes"):
            assert key in s


#: Flush lists mixing empty, one-page and multi-page batches, unpinned
#: and pinned (BPLRU pins a batch to its block number).
flush_lists = st.lists(
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 10**12), max_size=5),
            st.none() | st.integers(-3, 10**6),
        ),
        max_size=6,
    ),
    max_size=8,
)


class TestEvictionDigest:
    @given(accesses=flush_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_literal_repr_encoding(self, accesses):
        """The fold hashes ``repr((tuple(lpns), pin_key))`` per non-empty
        batch, in order -- the encoding of the seed goldens."""
        folded, literal = hashlib.sha256(), hashlib.sha256()
        for batches in accesses:
            fold_eviction_digest(
                folded, [FlushBatch(list(lpns), pin_key=pin) for lpns, pin in batches]
            )
            for lpns, pin in batches:
                if lpns:
                    literal.update(repr((tuple(lpns), pin)).encode())
        assert folded.hexdigest() == literal.hexdigest()
