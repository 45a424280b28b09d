"""CFLRU — Clean-First LRU (Park et al., CASES 2006).

The cache holds both dirty pages (buffered writes) and clean pages
(read-miss fills).  The LRU list is split into a *working region* (the
recent part) and a *clean-first region* (the trailing
``window_fraction`` of capacity).  On eviction, the least-recently-used
**clean** page inside the clean-first region is dropped for free (no
flash write); only when the window holds no clean page is the dirty LRU
tail flushed.

This is the only policy in the suite that caches read data, matching its
original design; the paper cites it as the canonical page-level scheme
(§2.1).  Because clean drops produce no :class:`FlushBatch`, CFLRU
trades hit ratio for reduced flash write traffic.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch
from repro.obs.events import CacheHit, CacheMiss, Evict, Insert
from repro.traces.model import IORequest
from repro.utils.dll import DLLNode, DoublyLinkedList
from repro.utils.validation import require_in_range

__all__ = ["CFLRUCache"]


class _CFLRUNode(DLLNode):
    __slots__ = ("lpn", "dirty")

    def __init__(self, lpn: int, dirty: bool) -> None:
        super().__init__()
        self.lpn = lpn
        self.dirty = dirty


class CFLRUCache(CachePolicy):
    """Clean-first LRU over pages, caching both reads and writes."""

    name = "cflru"
    node_bytes = 12

    def __init__(self, capacity_pages: int, window_fraction: float = 0.5) -> None:
        super().__init__(capacity_pages)
        require_in_range(window_fraction, "window_fraction", 0.0, 1.0)
        self.window_fraction = window_fraction
        self._list: DoublyLinkedList[_CFLRUNode] = DoublyLinkedList("cflru")
        self._index: Dict[int, _CFLRUNode] = {}

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of pages currently cached."""
        return len(self._index)

    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""
        return lpn in self._index

    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified)."""
        return self._index.keys()

    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count."""
        return len(self._index)

    # ------------------------------------------------------------------
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
        is_write = request.is_write
        for lpn in request.pages():
            node = self._index.get(lpn)
            if node is not None:
                outcome.page_hits += 1
                if emit is not None:
                    self._event_clock += 1
                    emit(CacheHit(self._event_clock, req_id, lpn, self.name))
                if is_write:
                    node.dirty = True  # clean page overwritten in place
                self._list.move_to_head(node)
                continue
            outcome.page_misses += 1
            if emit is not None:
                self._event_clock += 1
                emit(CacheMiss(self._event_clock, req_id, lpn, is_write))
            if not is_write:
                outcome.read_miss_lpns.append(lpn)
            while len(self._index) >= self.capacity_pages:
                n_flushes = len(flushes)
                self._evict_one(outcome)
                if emit is not None:
                    # Clean drops produce no FlushBatch, hence no Evict
                    # event: only flushed batches reach flash.
                    for batch in flushes[n_flushes:]:
                        emit(
                            Evict(
                                self._event_clock,
                                req_id,
                                tuple(batch.lpns),
                                self.name,
                            )
                        )
            self._insert(lpn, dirty=is_write)
            if is_write:
                outcome.inserted_pages += 1
            if emit is not None:
                emit(Insert(self._event_clock, req_id, lpn, self.name))
        return outcome

    def _insert(self, lpn: int, dirty: bool) -> None:
        node = _CFLRUNode(lpn, dirty)
        self._index[lpn] = node
        self._list.push_head(node)

    def _evict_one(self, outcome: AccessOutcome) -> None:
        window = max(1, int(self.capacity_pages * self.window_fraction))
        # Search the clean-first region (tail-ward window) for a clean page.
        node = self._list.tail
        scanned = 0
        while node is not None and scanned < window:
            if not node.dirty:
                self._list.remove(node)
                del self._index[node.lpn]
                return  # clean drop: no flash write
            node = node.prev
            scanned += 1
        victim = self._list.pop_tail()
        assert victim is not None, "evict called on empty cache"
        del self._index[victim.lpn]
        outcome.flushes.append(FlushBatch([victim.lpn]))

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages."""
        dirty = [n.lpn for n in self._list if n.dirty]
        self._list.clear()
        self._index.clear()
        return FlushBatch(dirty, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        super().validate()
        self._list.validate()
        assert len(self._list) == len(self._index)
