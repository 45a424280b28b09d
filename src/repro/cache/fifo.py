"""Page-level FIFO write buffer.

Insertion order only — hits do not promote.  Included as the classic
recency-free baseline (paper §2.1) and reused by VBBMS for its
sequential region.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.cache.base import AccessOutcome, FlushBatch, WriteBufferPolicy
from repro.traces.model import IORequest
from repro.utils.dll import DLLNode, DoublyLinkedList

__all__ = ["PageNode", "FIFOCache"]


class PageNode(DLLNode):
    """One cached page in a page-granularity policy's list (FIFO, ECR)."""

    __slots__ = ("lpn",)

    def __init__(self, lpn: int) -> None:
        # Base fields set directly: one of these is built per inserted
        # page, and the super().__init__() call doubled the cost.
        self.lpn = lpn
        self.prev = None
        self.next = None
        self.owner = None


class FIFOCache(WriteBufferPolicy):
    """First-in first-out write buffer at page granularity."""

    name = "fifo"
    node_bytes = 12

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._list: DoublyLinkedList[PageNode] = DoublyLinkedList("fifo")
        self._index: Dict[int, PageNode] = {}

    # ------------------------------------------------------------------
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
    def _on_hit(self, lpn: int, request: IORequest) -> None:
        # FIFO ignores recency: a hit updates data in place but the
        # page keeps its insertion-order position.
        pass

    def _insert(self, lpn: int, request: IORequest, outcome: AccessOutcome) -> None:
        node = PageNode(lpn)
        self._index[lpn] = node
        self._list.push_head(node)
        self._occupancy += 1

    def _evict_one(self, outcome: AccessOutcome) -> None:
        victim = self._list.pop_tail()
        assert victim is not None, "evict called on empty cache"
        del self._index[victim.lpn]
        self._occupancy -= 1
        outcome.flushes.append(FlushBatch([victim.lpn]))

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages."""
        lpns = [n.lpn for n in self._list]
        self._list.clear()
        self._index.clear()
        self._occupancy = 0
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        super().validate()
        self._list.validate()
        assert len(self._list) == len(self._index) == self._occupancy
