"""VBBMS — Virtual-Block-based Buffer Management Scheme (Du et al., TCE 2019).

The paper's strongest baseline.  The cache is statically split into a
**random region** and a **sequential region** at a 3:2 ratio (paper
§4.1); write requests are routed by a sequential-stream detector — a
request is sequential when it *continues* a recently observed stream
(its first LPN is a tracked stream end) or is unambiguously bulk
(``seq_threshold_pages`` or larger).  Everything else — including
rewrites of recently written extents, which repeat rather than extend a
stream — is random.  Pages are grouped into LPN-aligned **virtual
blocks** of 3 pages (random region) and 4 pages (sequential region).
The random region replaces virtual blocks by LRU, the sequential region
by FIFO; an evicted virtual block is flushed in batch (striped across
channels by the controller — VBBMS virtual blocks are not
block-mapped).

Each region evicts against its own capacity, so a burst of sequential
writes can never wash the hot random pages out of the cache — the
behaviour that makes VBBMS competitive with Req-block on most traces
(Fig. 9).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Set

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch
from repro.obs.events import CacheHit, CacheMiss, Evict, Insert
from repro.traces.model import IORequest, OpType
from repro.utils.validation import require_in_range, require_positive

__all__ = ["VBBMSCache"]


class _Region:
    """One of the two cache partitions: an ordered map of virtual blocks."""

    __slots__ = (
        "name",
        "capacity",
        "vb_pages",
        "use_lru",
        "vbs",
        "occupancy",
        "evict_reason",
    )

    def __init__(self, name: str, capacity: int, vb_pages: int, use_lru: bool) -> None:
        self.name = name
        self.capacity = capacity
        self.vb_pages = vb_pages
        self.use_lru = use_lru
        #: Virtual block number -> its cached LPNs, eviction end first
        #: (least recently used in the LRU region, oldest in the FIFO
        #: one).
        self.vbs: "OrderedDict[int, Set[int]]" = OrderedDict()
        self.occupancy = 0
        # Precomputed FlushBatch reason (one eviction happens per ~3-4
        # inserted pages; the f-string per eviction showed in profiles).
        self.evict_reason = f"{name}-capacity"


class VBBMSCache(CachePolicy):
    """Two-region virtual-block write buffer (LRU random + FIFO sequential)."""

    name = "vbbms"
    node_bytes = 24  # virtual block node == block node (paper §4.2.5)

    def __init__(
        self,
        capacity_pages: int,
        random_fraction: float = 0.6,  # the paper's 3:2 split
        random_vb_pages: int = 3,
        seq_vb_pages: int = 4,
        seq_threshold_pages: int = 16,
        stream_table_size: int = 32,
    ) -> None:
        super().__init__(capacity_pages)
        if capacity_pages < 2:
            raise ValueError(
                "VBBMS partitions the cache into two regions and needs "
                f"at least 2 pages of capacity, got {capacity_pages}"
            )
        require_in_range(random_fraction, "random_fraction", 0.1, 0.9)
        require_positive(random_vb_pages, "random_vb_pages")
        require_positive(seq_vb_pages, "seq_vb_pages")
        require_positive(seq_threshold_pages, "seq_threshold_pages")
        require_positive(stream_table_size, "stream_table_size")
        # Both regions get at least one page and the split never exceeds
        # the total capacity (the max(1, ...) floor could otherwise
        # overshoot on tiny caches).
        random_cap = min(
            capacity_pages - 1, max(1, int(capacity_pages * random_fraction))
        )
        seq_cap = capacity_pages - random_cap
        self.seq_threshold_pages = seq_threshold_pages
        self.stream_table_size = stream_table_size
        self.random = _Region("vbbms-random", random_cap, random_vb_pages, use_lru=True)
        self.seq = _Region("vbbms-seq", seq_cap, seq_vb_pages, use_lru=False)
        #: lpn -> region holding it (pages live in exactly one region).
        self._page_region: Dict[int, _Region] = {}
        #: Recently observed stream end LPNs (insertion-ordered, bounded).
        self._stream_ends: Dict[int, None] = {}

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of pages currently cached."""
        return self.random.occupancy + self.seq.occupancy

    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""
        return lpn in self._page_region

    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified)."""
        return self._page_region.keys()

    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count."""
        return len(self.random.vbs) + len(self.seq.vbs)

    # ------------------------------------------------------------------
    def classify(self, request: IORequest) -> _Region:
        """Route a write request through the sequential-stream detector.

        Sequential = continues a tracked stream, or is large enough to
        be unambiguous bulk I/O.  Extent *rewrites* repeat addresses
        instead of extending them, so they classify as random — exactly
        the behaviour that lets large hot rewrites wash the random
        region and gives Req-block its edge on src1_2/proj_0 (Fig. 9).
        """
        is_seq = (
            request.lpn in self._stream_ends
            or request.npages >= self.seq_threshold_pages
        )
        self._note_stream(request)
        return self.seq if is_seq else self.random

    def _note_stream(self, request: IORequest) -> None:
        """Record the request's end LPN as a potential stream tail."""
        self._stream_ends.pop(request.lpn, None)  # consumed/extended
        self._stream_ends[request.end_lpn] = None
        while len(self._stream_ends) > self.stream_table_size:
            # Discard the oldest tracked stream (dict preserves insertion).
            oldest = next(iter(self._stream_ends))
            del self._stream_ends[oldest]

    def access(self, request: IORequest) -> AccessOutcome:
        """Serve one request through the cache (see CachePolicy); each
        event site costs one ``emit is not None`` test when no tracer is
        attached."""
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        req_id = self._req_seq
        self._req_seq = req_id + 1
        outcome = AccessOutcome()
        flushes = outcome.flushes
        is_write = request.op is OpType.WRITE
        page_region = self._page_region
        region_get = page_region.get
        evict_from = self._evict_from
        read_misses = outcome.read_miss_lpns
        hits = misses = inserted = 0
        clock = self._event_clock
        if is_write:
            # The insert target is fixed for the whole request, so its
            # region fields are bound once.
            target = self.classify(request)
            t_cap = target.capacity
            t_vb_pages = target.vb_pages
            t_use_lru = target.use_lru
            t_vbs = target.vbs
            t_vbs_get = t_vbs.get
            t_move_to_end = t_vbs.move_to_end
        for lpn in request.pages():
            region = region_get(lpn)
            if region is not None:
                hits += 1
                if emit is not None:
                    clock += 1
                    emit(CacheHit(clock, req_id, lpn, region.name))
                # Only the random region tracks recency (LRU); the FIFO
                # sequential region leaves hit blocks in place.
                if region.use_lru:
                    region.vbs.move_to_end(lpn // region.vb_pages)
            elif is_write:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, True))
                while target.occupancy >= t_cap:
                    evict_from(target, outcome)
                    if emit is not None:
                        emit(Evict(clock, req_id, tuple(flushes[-1].lpns), target.name))
                vbn = lpn // t_vb_pages
                pages = t_vbs_get(vbn)
                if pages is None:
                    t_vbs[vbn] = {lpn}
                else:
                    if t_use_lru:
                        t_move_to_end(vbn)
                    pages.add(lpn)
                target.occupancy += 1
                page_region[lpn] = target
                inserted += 1
                if emit is not None:
                    emit(Insert(clock, req_id, lpn, target.name))
            else:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, False))
                read_misses.append(lpn)
        self._event_clock = clock
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

    # ------------------------------------------------------------------
    def _evict_from(self, region: _Region, outcome: AccessOutcome) -> None:
        lpns = sorted(region.vbs.popitem(last=False)[1])
        page_region = self._page_region
        for lpn in lpns:
            del page_region[lpn]
        region.occupancy -= len(lpns)
        outcome.flushes.append(FlushBatch(lpns, reason=region.evict_reason))

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages."""
        lpns = sorted(self._page_region.keys())
        for region in (self.random, self.seq):
            region.vbs.clear()
            region.occupancy = 0
        self._page_region.clear()
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        # Regions have individual capacities; the global bound still holds.
        assert self.occupancy() <= self.capacity_pages
        for region in (self.random, self.seq):
            total = 0
            for vbn, pages in region.vbs.items():
                assert pages, "empty virtual block retained"
                for lpn in pages:
                    assert lpn // region.vb_pages == vbn
                    assert self._page_region[lpn] is region
                total += len(pages)
            assert total == region.occupancy
            assert region.occupancy <= region.capacity
