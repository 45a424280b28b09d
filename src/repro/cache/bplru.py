"""BPLRU — Block Padding LRU (Kim & Ahn, FAST 2008).

Block-level LRU over 64-page SSD blocks with two signature mechanisms:

* **LRU compensation** — a block whose pages were written sequentially
  (in ascending order, ending at the block boundary) is moved to the
  LRU (eviction) end, because sequentially written data is unlikely to
  be rewritten soon;
* **single-block flush** — an evicted block's pages are flushed onto one
  physical SSD block (the RAM buffer is block-mapped).  The controller
  honours this via ``FlushBatch.pin_key``, which is the paper's
  explanation for BPLRU's weaker response times: the flush cannot
  exploit channel parallelism (§4.2.2).

**Page padding** (reading the block's missing pages so a full block can
be switch-merged) is supported behind ``page_padding=True``; it is off
by default because the paper's Figure 10/11 eviction and write counts
are consistent with flushing only the cached pages.  When enabled, the
padding pages are reported as read misses of the evicting write; the
controller reads them from flash before it programs the padded block.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, Set

from repro.cache.base import AccessOutcome, FlushBatch, WriteBufferPolicy
from repro.traces.model import IORequest, OpType

__all__ = ["BPLRUCache"]


class _BPLRUBlock:
    __slots__ = ("lbn", "pages", "last_offset", "in_order")

    def __init__(self, lbn: int) -> None:
        self.lbn = lbn
        self.pages: Set[int] = set()
        self.last_offset = -1  # offset of the most recently inserted page
        self.in_order = True  # inserts so far were strictly ascending


class BPLRUCache(WriteBufferPolicy):
    """Block-padding LRU write buffer."""

    name = "bplru"
    node_bytes = 24  # paper §4.2.5: 24 B per block node

    def __init__(
        self,
        capacity_pages: int,
        pages_per_block: int = 64,
        page_padding: bool = False,
    ) -> None:
        super().__init__(capacity_pages)
        self.pages_per_block = pages_per_block
        self.page_padding = page_padding
        #: Block number -> block, in recency order with the eviction end
        #: first (``move_to_end`` promotes, ``move_to_end(lbn,
        #: last=False)`` demotes, ``popitem(last=False)`` evicts).
        self._blocks: "OrderedDict[int, _BPLRUBlock]" = OrderedDict()
        self._page_index: Dict[int, _BPLRUBlock] = {}

    # ------------------------------------------------------------------
    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""
        return lpn in self._page_index

    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified)."""
        return self._page_index.keys()

    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count."""
        return len(self._blocks)

    # ------------------------------------------------------------------
    def access(self, request: IORequest) -> AccessOutcome:
        """Fused fast path: one page-index probe per page instead of the
        template's ``contains`` + ``_on_hit`` double lookup.  Mirrors the
        template loop exactly (the traced path still runs it); pinned by
        the fast-path equivalence test.
        """
        if self.tracer.enabled:
            return self._access_traced(request)
        self._req_seq += 1
        outcome = AccessOutcome()
        page_index = self._page_index
        index_get = page_index.get
        blocks = self._blocks
        blocks_get = blocks.get
        move_to_end = blocks.move_to_end
        evict_one = self._evict_one
        ppb = self.pages_per_block
        capacity = self.capacity_pages
        is_write = request.op is OpType.WRITE
        read_misses = outcome.read_miss_lpns
        occ = self._occupancy
        hits = misses = inserted = 0
        for lpn in request.pages():
            block = index_get(lpn)
            if block is not None:
                hits += 1
                # A rewrite breaks the "written once, sequentially"
                # pattern, so the block rejoins the MRU end.
                block.in_order = False
                move_to_end(block.lbn)
            elif is_write:
                misses += 1
                while occ >= capacity:
                    self._occupancy = occ
                    evict_one(outcome)
                    occ = self._occupancy
                # Inlined ``_insert`` (the traced template path still
                # runs the method; pinned by the equivalence test).
                lbn, offset = divmod(lpn, ppb)
                block = blocks_get(lbn)
                if block is None:
                    block = _BPLRUBlock(lbn)
                    blocks[lbn] = block
                else:
                    if offset != block.last_offset + 1:
                        block.in_order = False
                    move_to_end(lbn)
                block.pages.add(lpn)
                block.last_offset = offset
                page_index[lpn] = block
                occ += 1
                inserted += 1
                # LRU compensation: a fully sequential block that just
                # reached the block boundary joins the eviction end.
                if (
                    block.in_order
                    and offset == ppb - 1
                    and len(block.pages) == ppb
                ):
                    move_to_end(lbn, last=False)
            else:
                misses += 1
                read_misses.append(lpn)
        self._occupancy = occ
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

    def _on_hit(self, lpn: int, request: IORequest) -> None:
        block = self._page_index[lpn]
        # A rewrite breaks the "written once, sequentially" pattern, so
        # the block rejoins the MRU end like any hot block.
        block.in_order = False
        self._blocks.move_to_end(block.lbn)

    def _insert(self, lpn: int, request: IORequest, outcome: AccessOutcome) -> None:
        lbn, offset = divmod(lpn, self.pages_per_block)
        block = self._blocks.get(lbn)
        if block is None:
            block = _BPLRUBlock(lbn)
            self._blocks[lbn] = block
        else:
            if offset != block.last_offset + 1:
                block.in_order = False
            self._blocks.move_to_end(lbn)
        block.pages.add(lpn)
        block.last_offset = offset
        self._page_index[lpn] = block
        self._occupancy += 1
        # LRU compensation: a fully sequential block that just reached
        # the block boundary is demoted to the eviction end.
        if (
            block.in_order
            and offset == self.pages_per_block - 1
            and len(block.pages) == self.pages_per_block
        ):
            self._blocks.move_to_end(lbn, last=False)

    def _evict_one(self, outcome: AccessOutcome) -> None:
        victim = self._blocks.popitem(last=False)[1]
        lpns = sorted(victim.pages)
        for lpn in lpns:
            del self._page_index[lpn]
        self._occupancy -= len(lpns)
        if self.page_padding and len(lpns) < self.pages_per_block:
            base = victim.lbn * self.pages_per_block
            present = victim.pages
            padding = [
                base + off
                for off in range(self.pages_per_block)
                if (base + off) not in present
            ]
            # Padding pages are read from flash and written back as part
            # of the same single-block flush.
            outcome.read_miss_lpns.extend(padding)
            lpns = sorted(lpns + padding)
        outcome.flushes.append(
            FlushBatch(lpns, reason="capacity", pin_key=victim.lbn)
        )

    # ------------------------------------------------------------------
    def flush_all(self) -> FlushBatch:
        """Drain the cache; returns one batch of the dirty pages."""
        lpns = sorted(self._page_index.keys())
        self._blocks.clear()
        self._page_index.clear()
        self._occupancy = 0
        return FlushBatch(lpns, reason="drain")

    def validate(self) -> None:
        """Check structural invariants (tests); see CachePolicy."""
        super().validate()
        total = 0
        for lbn, block in self._blocks.items():
            assert block.lbn == lbn, f"block {block.lbn} filed under {lbn}"
            assert block.pages, f"empty block {lbn} retained in list"
            for lpn in block.pages:
                assert lpn // self.pages_per_block == lbn
                assert self._page_index[lpn] is block
            total += len(block.pages)
        assert total == self._occupancy == len(self._page_index)
