"""Page-level LRU — the paper's primary baseline.

Classic least-recently-used over individual 4 KB pages: hits promote the
page to the MRU end, eviction flushes the single least-recently-used
page.  Every eviction therefore frees exactly one page and issues
exactly one flash program — the behaviour the paper contrasts with
batched block/request eviction (Fig. 10).  The fused ``access`` hands a
request's victims on as one :class:`~repro.cache.base.PageEvictions`
run, which reads as one single-page ``FlushBatch`` per victim.

The recency order is one :class:`collections.OrderedDict` keyed by LPN,
LRU end first: a hit is ``move_to_end``, an insert appends and an
eviction is ``popitem(last=False)``, each O(1) in C with no per-page
node object (paper §4.2.5 counts 12 B of list metadata per page all the
same).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch, PageEvictions
from repro.obs.events import CacheHit, CacheMiss, Evict, Insert
from repro.traces.model import IORequest, OpType

__all__ = ["LRUCache"]


class LRUCache(CachePolicy):
    """Least-recently-used write buffer at page granularity."""

    name = "lru"
    node_bytes = 12  # paper §4.2.5: 12 B per page node

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        #: Cached LPNs in recency order, least recently used first.
        self._order: "OrderedDict[int, None]" = OrderedDict()
        self._occupancy = 0

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of pages currently cached."""
        return self._occupancy

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
        """Serve one request: the ``OrderedDict`` operations are bound
        once per request, and each event site costs one ``emit is not
        None`` test when no tracer is attached.

        The request's victims are collected into one list and handed
        out as a :class:`PageEvictions` view, not one ``FlushBatch``
        per evicted page.
        """
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        req_id = self._req_seq
        self._req_seq = req_id + 1
        outcome = AccessOutcome()
        order = self._order
        move_to_end = order.move_to_end
        popitem = order.popitem
        capacity = self.capacity_pages
        is_write = request.op is OpType.WRITE
        # The victims' LPNs collect in the outcome's own, still empty,
        # flush list, which is wrapped at the end: no second list.
        victims = outcome.flushes
        read_misses = outcome.read_miss_lpns
        hits = misses = inserted = 0
        occ = self._occupancy
        clock = self._event_clock
        for lpn in request.pages():
            if lpn in order:
                hits += 1
                if emit is not None:
                    clock += 1
                    emit(CacheHit(clock, req_id, lpn, self.name))
                move_to_end(lpn)
            elif is_write:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, True))
                while occ >= capacity:
                    occ -= 1
                    # popitem(last=False), passed positionally: the
                    # keyword form costs more per eviction.
                    victim = popitem(False)[0]
                    victims.append(victim)
                    if emit is not None:
                        # Observers validate the structure per event.
                        self._occupancy = occ
                        emit(Evict(clock, req_id, (victim,), self.name))
                order[lpn] = None
                occ += 1
                inserted += 1
                if emit is not None:
                    self._occupancy = occ
                    emit(Insert(clock, req_id, lpn, self.name))
            else:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, False))
                read_misses.append(lpn)
        self._occupancy = occ
        self._event_clock = clock
        if victims:
            outcome.flushes = PageEvictions(victims)
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

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
