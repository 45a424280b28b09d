"""Tests for replay metric aggregation."""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.base import AccessOutcome, FlushBatch, PageEvictions
from repro.sim.metrics import ReplayMetrics, fold_eviction_digest
from repro.ssd.controller import RequestRecord
from repro.traces.model import OpType
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
            outcome = AccessOutcome(
                flushes=[FlushBatch(list(lpns), pin_key=pin) for lpns, pin in batches]
            )
            fold_eviction_digest(folded, [(W(0), RequestRecord(1.0, outcome))])
            for lpns, pin in batches:
                if lpns:
                    literal.update(repr((tuple(lpns), pin)).encode())
        assert folded.hexdigest() == literal.hexdigest()


# ----------------------------------------------------------------------
# The chunk folds in lockstep with the per-request references
# ----------------------------------------------------------------------
_READ = OpType.READ


def reference_record(m: ReplayMetrics, request, record) -> None:
    """The per-request fold ``ReplayMetrics.fold`` replaced: each
    accumulator's inlined ``add``, one request at a time."""
    x, outcome = record
    hits = outcome.page_hits
    total = hits + outcome.page_misses
    m.n_requests += 1
    pages = m.pages
    pages.hits += hits
    pages.total += total
    if request.op is _READ:
        side = m.read_pages
        rs = m.read_response_ms
    else:
        side = m.write_pages
        rs = m.write_response_ms
    side.hits += hits
    side.total += total
    rs.count = n = rs.count + 1
    rs.total += x
    mean = rs._mean
    delta = x - mean
    mean += delta / n
    rs._mean = mean
    rs._m2 += delta * (x - mean)
    if x < rs.min:
        rs.min = x
    if x > rs.max:
        rs.max = x
    rs = m.response_ms
    rs.count = n = rs.count + 1
    rs.total += x
    mean = rs._mean
    delta = x - mean
    mean += delta / n
    rs._mean = mean
    rs._m2 += delta * (x - mean)
    if x < rs.min:
        rs.min = x
    if x > rs.max:
        rs.max = x
    rq = m.response_quantiles
    rq.count = n = rq.count + 1
    samples = rq._samples
    if len(samples) < rq.capacity:
        samples.append(x)
    else:
        rq._state = state = (rq._state * 0x5DEECE66D + 0xB) & 0xFFFFFFFFFFFF
        j = (state >> 16) % n
        if j < rq.capacity:
            samples[j] = x
    flushes = outcome.flushes
    if flushes:
        buckets = m.eviction_hist._buckets
        if type(flushes) is PageEvictions:
            buckets[1] = buckets.get(1, 0.0) + len(flushes.lpns)
        else:
            for batch in flushes:
                lpns = batch.lpns
                if lpns:
                    k = len(lpns)
                    buckets[k] = buckets.get(k, 0.0) + 1.0


def reference_digest(hasher, flushes) -> None:
    """The per-access digest fold: one ``update`` per non-empty batch."""
    for batch in flushes:
        if batch.lpns:
            hasher.update(repr((tuple(batch.lpns), batch.pin_key)).encode())


def _state(m: ReplayMetrics) -> dict:
    """Every accumulator the folds touch, field for field, floats as hex."""

    def welford(rs):
        floats = (rs.total, rs._mean, rs._m2, rs.min, rs.max)
        return (rs.count, *(float(v).hex() for v in floats))

    rq = m.response_quantiles
    return {
        "n_requests": m.n_requests,
        "pages": (m.pages.hits, m.pages.total),
        "read_pages": (m.read_pages.hits, m.read_pages.total),
        "write_pages": (m.write_pages.hits, m.write_pages.total),
        "response_ms": welford(m.response_ms),
        "read_response_ms": welford(m.read_response_ms),
        "write_response_ms": welford(m.write_response_ms),
        "reservoir": (rq.count, rq._state, [x.hex() for x in rq._samples]),
        "eviction_hist": sorted(
            (k, w.hex()) for k, w in m.eviction_hist._buckets.items()
        ),
    }


def _flushes(rng: random.Random):
    """One request's flushes: mostly none, else an LRU ``PageEvictions``
    run (empty now and then) or a list mixing empty, one-page and
    multi-page batches, unpinned and pinned."""
    kind = rng.random()
    if kind < 0.4:
        return []
    if kind < 0.7:
        n = rng.choice((0, 1, 1, 2, 5))
        return PageEvictions([rng.randrange(10**9) for _ in range(n)])
    return [
        FlushBatch(
            [rng.randrange(10**9) for _ in range(rng.choice((0, 1, 1, 3, 8)))],
            pin_key=rng.choice((None, None, 0, rng.randrange(10**6))),
        )
        for _ in range(rng.randint(1, 4))
    ]


def stream(seed: int, n: int):
    """``n`` reads and writes with their records, reproducible from ``seed``."""
    rng = random.Random(seed)
    pairs = []
    for i in range(n):
        npages = rng.randint(1, 16)
        hits = rng.randint(0, npages)
        op = R if rng.random() < 0.5 else W
        request = op(rng.randrange(10**6), npages, float(i))
        # Repeated values and zeros (cache-only records) next to a
        # skewed spread.
        response = rng.choice(
            (0.0, 0.25, rng.expovariate(0.5), rng.lognormvariate(0, 2))
        )
        outcome = AccessOutcome(
            page_hits=hits, page_misses=npages - hits, flushes=_flushes(rng)
        )
        pairs.append((request, RequestRecord(response_ms=response, outcome=outcome)))
    return pairs


def chunks(pairs, cuts):
    """``pairs`` cut at the sorted indices ``cuts`` (empty chunks kept)."""
    bounds = [0, *cuts, len(pairs)]
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


#: Longer than the reservoir's 4096 samples, so the LCG replacement
#: path runs in every example.
long_streams = st.builds(stream, st.integers(0, 2**32), st.integers(4097, 6000))
cut_points = st.lists(st.integers(0, 6000), max_size=40).map(sorted)


class TestChunkFold:
    @given(pairs=long_streams, cuts=cut_points)
    @settings(max_examples=25, deadline=None)
    def test_fold_matches_per_request_reference(self, pairs, cuts):
        reference = ReplayMetrics()
        for request, record in pairs:
            reference_record(reference, request, record)
        folded = ReplayMetrics()
        for chunk in chunks(pairs, [min(c, len(pairs)) for c in cuts]):
            folded.fold(chunk)
        rq = reference.response_quantiles
        assert rq.count > rq.capacity
        assert _state(folded) == _state(reference)

    @given(pairs=long_streams, cuts=cut_points)
    @settings(max_examples=25, deadline=None)
    def test_chunk_digest_matches_per_access_reference(self, pairs, cuts):
        reference = hashlib.sha256()
        for _request, record in pairs:
            reference_digest(reference, record.outcome.flushes)
        folded = hashlib.sha256()
        for chunk in chunks(pairs, [min(c, len(pairs)) for c in cuts]):
            fold_eviction_digest(folded, chunk)
        assert folded.hexdigest() == reference.hexdigest()

    def test_record_is_a_fold_of_one(self):
        pairs = stream(7, 4200)
        one, reference = ReplayMetrics(), ReplayMetrics()
        for request, record in pairs:
            one.record(request, record)
            reference_record(reference, request, record)
        assert _state(one) == _state(reference)

    def test_fold_never_sizes_a_page_evictions_run(self, monkeypatch):
        """Both folds read an LRU run's ``lpns`` whole: the view's
        Python-level ``__len__`` and ``__iter__`` never run."""

        def refuse(self, *args):
            raise AssertionError("PageEvictions walked as a sequence")

        pairs = stream(3, 500)
        assert any(type(r.outcome.flushes) is PageEvictions for _q, r in pairs)
        monkeypatch.setattr(PageEvictions, "__len__", refuse)
        monkeypatch.setattr(PageEvictions, "__iter__", refuse)
        ReplayMetrics().fold(pairs)
        fold_eviction_digest(hashlib.sha256(), pairs)
