"""Differential tests: page-level policies vs a brute-force reference.

The production LRU/FIFO/LFU use intrusive lists, hash indexes and (for
LFU) frequency buckets.  :class:`RefWriteBuffer` re-implements all three
with nothing but a Python list and a dict — slow, obvious, and easy to
audit.  Random workloads are replayed through both; the tracer event
stream of the production policy must yield exactly the reference's
per-page hit/miss decisions, and the cache contents must agree after
every request.  LRU's untraced fused ``access`` is checked on its own
too (outcome totals, read misses and one-page flushes in eviction
order), and so is its drain order.

The LFU tie-break relies on a property of the bucket implementation: a
page enters its bucket when its frequency last changed, so last-touch
order equals bucket order and ``min()`` over last-touch order by
frequency picks the same victim as "LRU tail of the lowest bucket".

BPLRU gets the same treatment from :class:`RefBPLRU`, an ``OrderedDict``
of blocks written from the ``repro.cache.bplru`` docstring alone: the
production policy's untraced ``access`` must report the reference's
hits, misses, read misses and flush batches on every request.
:class:`RefVBBMS` does the same for VBBMS from the ``repro.cache.vbbms``
docstring: two ``OrderedDict`` regions of virtual blocks and a ``dict``
of stream ends.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.registry import create_policy
from repro.obs.tracer import CountingTracer
from repro.traces.model import IORequest, OpType


class RefWriteBuffer:
    """Brute-force write buffer: ``order`` is last-touch order (oldest
    first, except FIFO where it is insertion order); ``freq`` counts
    accesses.  Mirrors Algorithm 1's write-buffer semantics."""

    def __init__(self, capacity: int, kind: str) -> None:
        self.capacity = capacity
        self.kind = kind  # "lru" | "fifo" | "lfu"
        self.order: List[int] = []
        self.freq = {}

    def access(self, request: IORequest) -> List[bool]:
        decisions = []
        for lpn in request.pages():
            if lpn in self.freq:
                decisions.append(True)
                self.freq[lpn] += 1
                if self.kind != "fifo":  # FIFO ignores recency
                    self.order.remove(lpn)
                    self.order.append(lpn)
            else:
                decisions.append(False)
                if request.is_write:
                    while len(self.order) >= self.capacity:
                        self._evict()
                    self.order.append(lpn)
                    self.freq[lpn] = 1
        return decisions

    def _evict(self) -> None:
        if self.kind == "lfu":
            victim = min(self.order, key=self.freq.__getitem__)
        else:
            victim = self.order[0]
        self.order.remove(victim)
        del self.freq[victim]


class RefBPLRU:
    """Brute-force BPLRU: ``blocks`` maps block number -> [pages, last
    inserted offset, sequential flag], least recently used first."""

    def __init__(self, capacity: int, pages_per_block: int, padding: bool) -> None:
        self.capacity = capacity
        self.ppb = pages_per_block
        self.padding = padding
        self.blocks: "OrderedDict[int, list]" = OrderedDict()

    def cached(self) -> set:
        return {lpn for pages, _last, _seq in self.blocks.values() for lpn in pages}

    def access(self, request: IORequest):
        """``(hits, misses, read_miss_lpns, [(lpns, reason, pin_key)])``."""
        hits = misses = 0
        read_misses: List[int] = []
        flushes = []
        for lpn in request.pages():
            lbn, offset = divmod(lpn, self.ppb)
            if lpn in self.cached():
                hits += 1
                self.blocks[lbn][2] = False
                self.blocks.move_to_end(lbn)
                continue
            misses += 1
            if not request.is_write:
                read_misses.append(lpn)
                continue
            while len(self.cached()) >= self.capacity:
                victim, (pages, _last, _seq) = self.blocks.popitem(last=False)
                lpns = sorted(pages)
                if self.padding:
                    first = victim * self.ppb
                    missing = sorted(set(range(first, first + self.ppb)) - pages)
                    read_misses.extend(missing)
                    lpns = sorted(lpns + missing)
                flushes.append((lpns, "capacity", victim))
            block = self.blocks.setdefault(lbn, [set(), -1, True])
            if offset != block[1] + 1:
                block[2] = False
            self.blocks.move_to_end(lbn)
            block[0].add(lpn)
            block[1] = offset
            if block[2] and offset == self.ppb - 1 and len(block[0]) == self.ppb:
                self.blocks.move_to_end(lbn, last=False)  # sequential demotion
        return hits, misses, read_misses, flushes


class RefVBBMS:
    """Brute-force VBBMS: ``regions`` maps a name to ``(capacity, vb pages,
    LRU?, OrderedDict(vbn -> pages))``, least recent or oldest block
    first; ``streams`` holds stream ends in insertion order."""

    def __init__(self, capacity: int, threshold: int, table_size: int) -> None:
        random_cap = min(capacity - 1, max(1, int(capacity * 0.6)))
        self.regions = {
            "vbbms-random": (random_cap, 3, True, OrderedDict()),
            "vbbms-seq": (capacity - random_cap, 4, False, OrderedDict()),
        }
        self.threshold, self.table_size = threshold, table_size
        self.streams: dict = {}

    def cached(self) -> set:
        blocks = [b for _c, _v, _l, bs in self.regions.values() for b in bs.values()]
        return set().union(*blocks)

    def access(self, request: IORequest):
        """``(hits, misses, read_miss_lpns, [(lpns, reason, pin_key)])``."""
        hits = misses = 0
        read_misses, flushes = [], []
        if request.is_write:
            is_seq = request.lpn in self.streams or request.npages >= self.threshold
            self.streams.pop(request.lpn, None)
            self.streams[request.end_lpn] = None
            while len(self.streams) > self.table_size:
                del self.streams[next(iter(self.streams))]
            target = "vbbms-seq" if is_seq else "vbbms-random"
        for lpn in request.pages():
            hit = [r for r in self.regions.values() if lpn in r[3].get(lpn // r[1], ())]
            if hit:
                hits += 1
                _cap, vb, lru, blocks = hit[0]
                if lru:
                    blocks.move_to_end(lpn // vb)
                continue
            misses += 1
            if not request.is_write:
                read_misses.append(lpn)
                continue
            cap, vb, lru, blocks = self.regions[target]
            while sum(map(len, blocks.values())) >= cap:
                lpns = sorted(blocks.popitem(last=False)[1])
                flushes.append((lpns, f"{target}-capacity", None))
            if lru and lpn // vb in blocks:
                blocks.move_to_end(lpn // vb)
            blocks.setdefault(lpn // vb, set()).add(lpn)
        return hits, misses, read_misses, flushes


class _VictimLog(RefWriteBuffer):
    """The reference, unchanged, plus a log of the pages its ``_evict``
    removed, in eviction order."""

    def __init__(self, capacity: int, kind: str) -> None:
        super().__init__(capacity, kind)
        self.victims: List[int] = []

    def _evict(self) -> None:
        before = set(self.freq)
        super()._evict()
        (victim,) = before - set(self.freq)
        self.victims.append(victim)


def _decisions_from_events(tracer: CountingTracer, req_id: int) -> List[bool]:
    """Per-page hit/miss decisions of one request, from the event stream."""
    out = []
    for event in tracer.events:
        if event.kind == "cache_hit" and event.req_id == req_id:
            out.append((event.time, True))
        elif event.kind == "cache_miss" and event.req_id == req_id:
            out.append((event.time, False))
    return [hit for _t, hit in sorted(out)]


request_lists = st.lists(
    st.tuples(
        st.booleans(),  # is_write
        st.integers(0, 50),  # lpn
        st.integers(1, 8),  # npages
    ),
    min_size=1,
    max_size=100,
)


class TestDifferential:
    @given(ops=request_lists, capacity=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_lru_matches_reference(self, ops, capacity):
        self._run("lru", ops, capacity)

    @given(ops=request_lists, capacity=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_fifo_matches_reference(self, ops, capacity):
        self._run("fifo", ops, capacity)

    @given(ops=request_lists, capacity=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_lfu_matches_reference(self, ops, capacity):
        self._run("lfu", ops, capacity)

    # ------------------------------------------------------------------
    @staticmethod
    def _run(kind: str, ops, capacity: int) -> None:
        policy = create_policy(kind, capacity)
        tracer = CountingTracer(keep_events=True)
        policy.set_tracer(tracer)
        reference = RefWriteBuffer(capacity, kind)
        for i, (is_write, lpn, npages) in enumerate(ops):
            request = IORequest(
                time=float(i),
                op=OpType.WRITE if is_write else OpType.READ,
                lpn=lpn,
                npages=npages,
            )
            outcome = policy.access(request)
            expected = reference.access(request)
            got = _decisions_from_events(tracer, req_id=i)
            assert got == expected, (
                f"{kind}: per-page decisions diverged at request {i} "
                f"({request!r}): policy={got} reference={expected}"
            )
            # The outcome totals must agree with the event stream too.
            assert outcome.page_hits == sum(got)
            assert outcome.page_misses == len(got) - sum(got)
            assert set(policy.cached_lpns()) == set(reference.order), (
                f"{kind}: contents diverged at request {i}"
            )
        policy.validate()

    @given(ops=request_lists, capacity=st.integers(2, 24))
    @settings(max_examples=100, deadline=None)
    def test_lru_untraced_matches_reference(self, ops, capacity):
        """The fused ``access`` (no tracer attached) against the
        reference, request by request."""
        policy = create_policy("lru", capacity)
        reference = _VictimLog(capacity, "lru")
        for i, request in enumerate(_requests(ops)):
            outcome = policy.access(request)
            decisions = reference.access(request)
            got = (
                outcome.page_hits,
                outcome.page_misses,
                list(outcome.read_miss_lpns),
                [(list(f.lpns), f.reason, f.pin_key) for f in outcome.flushes],
            )
            expected = (
                sum(decisions),
                len(decisions) - sum(decisions),
                [] if request.is_write else [
                    lpn for lpn, hit in zip(request.pages(), decisions) if not hit
                ],
                [([victim], "capacity", None) for victim in reference.victims],
            )
            reference.victims.clear()
            assert got == expected, f"lru diverged at request {i} ({request!r})"
            assert set(policy.cached_lpns()) == set(reference.order), (
                f"lru: contents diverged at request {i}"
            )
        policy.validate()

    @given(ops=request_lists, capacity=st.integers(2, 24))
    @settings(max_examples=60, deadline=None)
    def test_lru_drains_most_recent_first(self, ops, capacity):
        """``flush_all`` hands out the reference order reversed: the most
        recently used page first, the order a draining replay programs
        flash in."""
        policy = create_policy("lru", capacity)
        reference = RefWriteBuffer(capacity, "lru")
        for request in _requests(ops):
            policy.access(request)
            reference.access(request)
        batch = policy.flush_all()
        assert batch.lpns == reference.order[::-1]
        assert batch.reason == "drain"
        assert policy.occupancy() == 0 and not list(policy.cached_lpns())
        policy.validate()

    def test_reference_is_actually_naive(self):
        """Guard the premise of the docstring: each reference stays a
        ~40-line dict+list model with no clever data structures."""
        import inspect

        for reference in (RefWriteBuffer, RefBPLRU, RefVBBMS):
            source = inspect.getsource(reference)
            assert len(source.splitlines()) < 50, reference.__name__


def _requests(ops) -> List[IORequest]:
    return [
        IORequest(
            time=float(i),
            op=OpType.WRITE if is_write else OpType.READ,
            lpn=lpn,
            npages=npages,
        )
        for i, (is_write, lpn, npages) in enumerate(ops)
    ]


#: Small blocks so random streams over LPNs 0..57 fill, demote and pad
#: blocks often.
BPLRU_PPB = 4


def _run_bplru(ops, capacity: int, padding: bool):
    """Replay ``ops`` through ``BPLRUCache`` and :class:`RefBPLRU` in
    lockstep; returns every flush and read miss the policy reported."""
    policy = create_policy(
        "bplru", capacity, pages_per_block=BPLRU_PPB, page_padding=padding
    )
    reference = RefBPLRU(capacity, BPLRU_PPB, padding)
    flushes, read_misses = [], []
    for i, (is_write, lpn, npages) in enumerate(ops):
        request = IORequest(
            time=float(i),
            op=OpType.WRITE if is_write else OpType.READ,
            lpn=lpn,
            npages=npages,
        )
        outcome = policy.access(request)
        got = (
            outcome.page_hits,
            outcome.page_misses,
            list(outcome.read_miss_lpns),
            [(list(f.lpns), f.reason, f.pin_key) for f in outcome.flushes],
        )
        expected = reference.access(request)
        assert got == expected, f"bplru diverged at request {i} ({request!r})"
        assert set(policy.cached_lpns()) == reference.cached(), (
            f"bplru: contents diverged at request {i}"
        )
        flushes.extend(got[3])
        read_misses.extend(got[2])
    policy.validate()
    return flushes, read_misses


class TestBPLRUDifferential:
    @given(
        ops=request_lists, capacity=st.integers(2, 24), padding=st.booleans()
    )
    @settings(max_examples=100, deadline=None)
    def test_bplru_matches_reference(self, ops, capacity, padding):
        _run_bplru(ops, capacity, padding)

    def test_demotion_and_padding_exercised(self):
        """A fixed stream whose flush order needs the sequential
        demotion and whose second flush is padded.

        Block 0 is written in order up to its last offset after block 2
        was touched, so it is demoted behind block 2 and evicted first;
        block 2 holds only LPN 9 when it goes, so its flush reads and
        carries the padding LPNs 8, 10 and 11."""
        ops = [
            (True, 9, 1),  # block 2: one page
            (True, 0, 4),  # block 0: sequential and full -> LRU end
            (True, 20, 1),  # block 5; the cache now holds 6 pages
            (True, 24, 1),  # evicts block 0, not the older block 2
            (True, 28, 3),  # block 7 fills the cache again
            (True, 32, 1),  # evicts block 2 with padding
        ]
        flushes, read_misses = _run_bplru(ops, capacity=6, padding=True)
        assert flushes == [
            ([0, 1, 2, 3], "capacity", 0),
            ([8, 9, 10, 11], "capacity", 2),
        ]
        assert read_misses == [8, 10, 11]


def _run_vbbms(ops, capacity: int, threshold: int, table_size: int):
    """Replay ``ops`` through ``VBBMSCache`` and :class:`RefVBBMS` in
    lockstep; returns each request's hit count and every flush."""
    policy = create_policy(
        "vbbms", capacity, seq_threshold_pages=threshold, stream_table_size=table_size
    )
    reference = RefVBBMS(capacity, threshold, table_size)
    hits, flushes = [], []
    for i, (is_write, lpn, npages) in enumerate(ops):
        request = IORequest(
            time=float(i),
            op=OpType.WRITE if is_write else OpType.READ,
            lpn=lpn,
            npages=npages,
        )
        outcome = policy.access(request)
        got = (
            outcome.page_hits,
            outcome.page_misses,
            list(outcome.read_miss_lpns),
            [(list(f.lpns), f.reason, f.pin_key) for f in outcome.flushes],
        )
        expected = reference.access(request)
        assert got == expected, f"vbbms diverged at request {i} ({request!r})"
        assert set(policy.cached_lpns()) == reference.cached(), (
            f"vbbms: contents diverged at request {i}"
        )
        hits.append(got[0])
        flushes.extend(got[3])
    policy.validate()
    return hits, flushes


class TestVBBMSDifferential:
    @given(
        ops=request_lists,
        capacity=st.integers(2, 24),
        threshold=st.integers(2, 6),
        table_size=st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_vbbms_matches_reference(self, ops, capacity, threshold, table_size):
        _run_vbbms(ops, capacity, threshold, table_size)

    def test_trim_cross_region_hit_and_both_regions_exercised(self):
        """A fixed stream on a 6+4-page cache with a one-entry stream
        table.

        Writing LPN 30 trims stream end 1 from the table, so the later
        write of LPN 1 is random and joins block 0, moving it to MRU.  A
        random-classified write of LPNs 12-13 hits 12 in the sequential
        region.  The sequential region evicts block 2, then the random
        region evicts block 10 (LRU, since block 0 moved) and block 0
        with both of its pages."""
        ops = [
            (True, 0, 1),  # random; stream ends {1}
            (True, 30, 1),  # random; {31}: end 1 trimmed
            (True, 1, 1),  # random (1 no longer tracked); block 0 to MRU
            (True, 8, 4),  # sequential by size: block 2 fills the region
            (True, 12, 1),  # sequential (continues 12): evicts block 2
            (True, 12, 2),  # random: hits 12 in the sequential region
            (True, 40, 3),  # random region full at 42: evicts block 10
            (True, 50, 1),  # evicts block 0
        ]
        hits, flushes = _run_vbbms(ops, capacity=10, threshold=4, table_size=1)
        assert hits == [0, 0, 0, 0, 0, 1, 0, 0]
        assert flushes == [
            ([8, 9, 10, 11], "vbbms-seq-capacity", None),
            ([30], "vbbms-random-capacity", None),
            ([0, 1], "vbbms-random-capacity", None),
        ]
