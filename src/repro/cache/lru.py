"""Page-level LRU — the paper's primary baseline.

Classic least-recently-used over individual 4 KB pages: hits promote the
page to the MRU end, eviction flushes the single least-recently-used
page.  Every eviction therefore frees exactly one page and issues
exactly one flash program — the behaviour the paper contrasts with
batched block/request eviction (Fig. 10).

The recency order is one :class:`collections.OrderedDict` keyed by LPN,
LRU end first: a hit is ``move_to_end``, an insert appends and an
eviction is ``popitem(last=False)``, each O(1) in C with no per-page
node object (paper §4.2.5 counts 12 B of list metadata per page all the
same).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.cache.base import AccessOutcome, FlushBatch, WriteBufferPolicy
from repro.traces.model import IORequest, OpType

__all__ = ["LRUCache"]


class LRUCache(WriteBufferPolicy):
    """Least-recently-used write buffer at page granularity."""

    name = "lru"
    node_bytes = 12  # paper §4.2.5: 12 B per page node

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        #: Cached LPNs in recency order, least recently used first.
        self._order: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------------
    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""
        return lpn in self._order

    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified)."""
        return self._order.keys()

    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count."""
        return len(self._order)

    # ------------------------------------------------------------------
    def access(self, request: IORequest) -> AccessOutcome:
        """Fused fast path: the hooks' ``OrderedDict`` operations bound
        once per request instead of three method calls per page.  Must
        stay behaviourally identical to the template loop — the traced
        path still uses it, and the fast-path equivalence and
        differential tests pin the eviction sequence.
        """
        if self.tracer.enabled:
            return self._access_traced(request)
        self._req_seq += 1
        outcome = AccessOutcome()
        order = self._order
        move_to_end = order.move_to_end
        popitem = order.popitem
        capacity = self.capacity_pages
        is_write = request.op is OpType.WRITE
        flushes = outcome.flushes
        read_misses = outcome.read_miss_lpns
        hits = misses = inserted = 0
        occ = self._occupancy
        for lpn in request.pages():
            if lpn in order:
                hits += 1
                move_to_end(lpn)
            elif is_write:
                misses += 1
                while occ >= capacity:
                    occ -= 1
                    # popitem(last=False), passed positionally: the
                    # keyword form costs more per eviction.
                    flushes.append(FlushBatch([popitem(False)[0]]))
                order[lpn] = None
                occ += 1
                inserted += 1
            else:
                misses += 1
                read_misses.append(lpn)
        self._occupancy = occ
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

    def _on_hit(self, lpn: int, request: IORequest) -> None:
        self._order.move_to_end(lpn)

    def _insert(self, lpn: int, request: IORequest, outcome: AccessOutcome) -> None:
        self._order[lpn] = None
        self._occupancy += 1

    def _evict_one(self, outcome: AccessOutcome) -> None:
        victim = self._order.popitem(last=False)[0]
        self._occupancy -= 1
        outcome.flushes.append(FlushBatch([victim]))

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages, most
        recently used first (the order a draining replay programs them)."""
        lpns = list(reversed(self._order))
        self._order.clear()
        self._occupancy = 0
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        super().validate()
        assert len(self._order) == self._occupancy
