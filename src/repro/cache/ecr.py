"""ECR — Eviction-Cost-aware Replacement (Chen et al., CCPE 2021).

A cited page-based scheme (paper §2.1, reference [10]): instead of
blindly evicting the LRU page, ECR "chooses the victim page which
requires the shortest waiting time to be flushed onto the flash cell,
by referring to the length of I/O queues of SSD channels".

This is the one baseline that needs *device feedback* — policies are
otherwise device-free.  The coupling is a single narrow protocol:
:class:`DeviceFeedback` exposes ``flush_backlog_ms(lpn)``, the current
queueing delay a flush of ``lpn`` would face.  The controller injects
an adapter at construction (see ``SSDController``); without feedback
(cache-only replay), ECR degenerates to plain LRU, which the tests pin.

Victim selection: among the ``window`` least-recently-used pages, evict
the one whose flush backlog is smallest (ties broken toward the LRU
end).  The backlog estimate assumes the page's flush lands on plane
``lpn % n_planes`` — ECR presupposes a known flush target, whereas our
page-level FTL stripes dynamically; the approximation and its effect
are documented in the module tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Protocol

from repro.cache.base import AccessOutcome, FlushBatch, WriteBufferPolicy
from repro.cache.fifo import PageNode
from repro.traces.model import IORequest
from repro.utils.dll import DoublyLinkedList
from repro.utils.validation import require_positive

__all__ = ["DeviceFeedback", "ECRCache"]


class DeviceFeedback(Protocol):
    """What a cost-aware policy may ask the device."""

    def flush_backlog_ms(self, lpn: int) -> float:
        """Estimated queueing delay (ms) a flush of ``lpn`` faces now."""
        ...


class ECRCache(WriteBufferPolicy):
    """Eviction-cost-aware page-level write buffer."""

    name = "ecr"
    node_bytes = 12  # page node, like LRU

    def __init__(self, capacity_pages: int, window: int = 16) -> None:
        """
        Parameters
        ----------
        window:
            How many LRU-end pages are considered per eviction; 1 makes
            ECR identical to LRU regardless of feedback.
        """
        super().__init__(capacity_pages)
        require_positive(window, "window")
        self.window = window
        self._list: DoublyLinkedList[PageNode] = DoublyLinkedList("ecr")
        self._index: Dict[int, PageNode] = {}
        self._feedback: Optional[DeviceFeedback] = None

    # ------------------------------------------------------------------
    def set_device_feedback(self, feedback: DeviceFeedback) -> None:
        """Attach the controller's backlog oracle (called once at setup)."""
        self._feedback = feedback

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
        self._list.move_to_head(self._index[lpn])

    def _insert(self, lpn: int, request: IORequest, outcome: AccessOutcome) -> None:
        node = PageNode(lpn)
        self._index[lpn] = node
        self._list.push_head(node)
        self._occupancy += 1

    def _evict_one(self, outcome: AccessOutcome) -> None:
        victim = self._select_victim()
        self._list.remove(victim)
        del self._index[victim.lpn]
        self._occupancy -= 1
        outcome.flushes.append(FlushBatch([victim.lpn]))

    def _select_victim(self) -> PageNode:
        tail = self._list.tail
        assert tail is not None, "evict called on empty cache"
        if self._feedback is None or self.window == 1:
            return tail
        best = tail
        best_cost = self._feedback.flush_backlog_ms(tail.lpn)
        node = tail.prev
        scanned = 1
        while node is not None and scanned < self.window:
            cost = self._feedback.flush_backlog_ms(node.lpn)
            if cost < best_cost:
                best_cost = cost
                best = node
            node = node.prev
            scanned += 1
        return best  # type: ignore[return-value]

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
