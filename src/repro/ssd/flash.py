"""Physical flash-array state: blocks, pages, free lists, wear.

Pure state container — no timing here.  Page states live in one flat
``bytearray`` indexed by PPN (free / valid / invalid); per-block
counters (valid pages, write pointer, erase count) live in flat lists
indexed by global block index.  The FTL and GC mutate this state through
a small, invariant-checked API; ``validate()`` recomputes everything
from scratch for the property-based tests.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ssd.config import SSDConfig
from repro.ssd.geometry import Geometry

__all__ = ["PageState", "FlashArray", "FlashOutOfSpace"]


class PageState:
    """Page lifecycle constants (values stored in the flat state array)."""

    FREE = 0
    VALID = 1
    INVALID = 2


class FlashOutOfSpace(RuntimeError):
    """Raised when a plane has no erased block to allocate from.

    Reaching this means GC could not reclaim space — either the device
    is genuinely over-filled (logical footprint exceeds physical minus
    reserve) or the GC threshold is mis-configured.
    """


class FlashArray:
    """All mutable physical state of the NAND array."""

    __slots__ = (
        "config",
        "geometry",
        "page_state",
        "valid_count",
        "write_ptr",
        "erase_count",
        "last_program_seq",
        "free_blocks",
        "active_block",
        "gc_active_block",
        "total_programs",
        "total_erases",
        "retired",
        "spare_blocks",
        "spares_reserved_per_plane",
    )

    def __init__(self, config: SSDConfig, geometry: Optional[Geometry] = None) -> None:
        self.config = config
        self.geometry = geometry or Geometry(config)
        n_blocks = config.n_blocks
        self.page_state = bytearray(self.geometry.total_pages)  # all FREE
        self.valid_count: List[int] = [0] * n_blocks
        self.write_ptr: List[int] = [0] * n_blocks
        self.erase_count: List[int] = [0] * n_blocks
        # Program-sequence stamp of each block's most recent program;
        # cost-benefit GC uses (total_programs - stamp) as the block's
        # "age" without needing wall-clock time.
        self.last_program_seq: List[int] = [0] * n_blocks
        # Per plane: stack of fully-erased block indices, plus the block
        # currently being filled (the "active" block).
        self.free_blocks: List[List[int]] = []
        self.active_block: List[int] = []
        # Separate GC write stream (lazily opened per plane when
        # config.gc_stream_separation is on).
        self.gc_active_block: List[Optional[int]] = [None] * config.n_planes
        for plane in self.geometry.planes():
            blocks = list(self.geometry.blocks_of_plane(plane))
            # First block becomes active immediately; rest are free.
            self.active_block.append(blocks[0])
            self.free_blocks.append(blocks[:0:-1])  # reversed so pop() is in order
        self.total_programs = 0
        self.total_erases = 0
        # Bad-block management state (see repro.faults): grown bad
        # blocks never return to service; factory spares replace them.
        # Both stay empty unless a fault injector is attached, so the
        # default device behaves exactly as before.
        self.retired: set[int] = set()
        self.spare_blocks: List[List[int]] = [[] for _ in range(config.n_planes)]
        self.spares_reserved_per_plane = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def free_block_count(self, plane: int) -> int:
        """Erased blocks available in ``plane``."""
        return len(self.free_blocks[plane])

    def free_ratio(self, plane: int) -> float:
        """Fraction of ``plane``'s blocks on the free list (GC trigger)."""
        return len(self.free_blocks[plane]) / self.config.blocks_per_plane

    def block_is_active(self, block_index: int) -> bool:
        """Whether the block is a write point (host or GC stream)."""
        plane = self.geometry.plane_of_block(block_index)
        return (
            self.active_block[plane] == block_index
            or self.gc_active_block[plane] == block_index
        )

    def is_retired(self, block_index: int) -> bool:
        """Whether the block is on the grown-bad-block list."""
        return block_index in self.retired

    def written_pages(self) -> int:
        """Physical pages holding data (valid or stale) — the mount
        scan's work unit after a power loss."""
        return sum(self.write_ptr)

    def valid_pages_of_block(self, block_index: int) -> List[int]:
        """PPNs of the currently valid pages of ``block_index``."""
        base = self.geometry.first_ppn_of_block(block_index)
        state = self.page_state
        return [
            base + off
            for off in range(self.write_ptr[block_index])
            if state[base + off] == PageState.VALID
        ]

    # ------------------------------------------------------------------
    # Mutation (called by the FTL / GC)
    # ------------------------------------------------------------------
    def allocate_page(self, plane: int, stream: str = "host") -> int:
        """Claim the next free page in ``plane``'s active block.

        ``stream`` selects the write stream: ``"host"`` (default) or
        ``"gc"`` when the device separates GC-migrated cold data
        (``config.gc_stream_separation``; without the flag, both streams
        share the host active block).  Rolls the active block over to a
        fresh one from the free list when it fills.  The returned PPN is
        in state FREE; the caller must follow up with :meth:`program`.
        """
        use_gc_stream = stream == "gc" and self.config.gc_stream_separation
        if use_gc_stream:
            block = self.gc_active_block[plane]
            if block is None:
                block = self._pop_free_block(plane)
                self.gc_active_block[plane] = block
        else:
            block = self.active_block[plane]
        ptr = self.write_ptr[block]
        if ptr >= self.config.pages_per_block:
            block = self._pop_free_block(plane)
            if use_gc_stream:
                self.gc_active_block[plane] = block
            else:
                self.active_block[plane] = block
            ptr = self.write_ptr[block]
            assert ptr == 0, "free-list block was not erased"
        ppn = self.geometry.first_ppn_of_block(block) + ptr
        self.write_ptr[block] = ptr + 1
        return ppn

    def _pop_free_block(self, plane: int) -> int:
        if not self.free_blocks[plane]:
            raise FlashOutOfSpace(
                f"plane {plane} has no free blocks (active block full); "
                "GC failed to reclaim space"
            )
        return self.free_blocks[plane].pop()

    def mark_program_failed(self, ppn: int) -> None:
        """Burn an allocated page whose program failed (never VALID).

        The page goes straight to INVALID: it consumed a write-pointer
        slot but holds no live data, so ``valid_count`` is untouched and
        the mapping never references it.
        """
        if self.page_state[ppn] != PageState.FREE:
            raise ValueError(f"ppn {ppn} not in FREE state; cannot fail program")
        block = self.geometry.block_of_ppn(ppn)
        if self.geometry.page_offset(ppn) >= self.write_ptr[block]:
            raise ValueError(f"ppn {ppn} failed before allocation")
        self.page_state[ppn] = PageState.INVALID

    def program(self, ppn: int) -> None:
        """Mark an allocated page VALID (NAND program completed)."""
        if self.page_state[ppn] != PageState.FREE:
            raise ValueError(f"ppn {ppn} programmed twice without erase")
        block = self.geometry.block_of_ppn(ppn)
        if self.geometry.page_offset(ppn) >= self.write_ptr[block]:
            raise ValueError(f"ppn {ppn} programmed before allocation")
        self.page_state[ppn] = PageState.VALID
        self.valid_count[block] += 1
        self.total_programs += 1
        self.last_program_seq[block] = self.total_programs

    def invalidate(self, ppn: int) -> None:
        """Mark a previously valid page INVALID (its LPN was rewritten)."""
        if self.page_state[ppn] != PageState.VALID:
            raise ValueError(f"cannot invalidate ppn {ppn}: not valid")
        self.page_state[ppn] = PageState.INVALID
        self.valid_count[self.geometry.block_of_ppn(ppn)] -= 1

    # ------------------------------------------------------------------
    # Bad-block management (driven by repro.faults)
    # ------------------------------------------------------------------
    def reserve_spares(self, per_plane: int) -> None:
        """Move ``per_plane`` erased blocks from each free list to the
        plane's factory-spare pool.  Called once at fault-injector
        attach; spares do not count as free (they are invisible to GC
        thresholds until a grown bad block draws them into service).
        """
        if self.spares_reserved_per_plane:
            raise RuntimeError("spares already reserved")
        if per_plane <= 0:
            return
        for plane in self.geometry.planes():
            free = self.free_blocks[plane]
            take = min(per_plane, max(0, len(free) - 2))
            for _ in range(take):
                self.spare_blocks[plane].append(free.pop())
        self.spares_reserved_per_plane = per_plane

    def retire_block(self, block_index: int) -> None:
        """Move ``block_index`` to the grown-bad-block list, permanently.

        The caller must have migrated every valid page out first and
        detached the block from any write point; retired blocks are
        never erased, allocated or collected again.
        """
        if block_index in self.retired:
            raise ValueError(f"block {block_index} already retired")
        if self.valid_count[block_index] != 0:
            raise ValueError(
                f"refusing to retire block {block_index}: "
                f"{self.valid_count[block_index]} valid pages remain"
            )
        if self.block_is_active(block_index):
            raise ValueError(f"refusing to retire active block {block_index}")
        plane = self.geometry.plane_of_block(block_index)
        free = self.free_blocks[plane]
        if block_index in free:  # erased-but-unused block can also die
            free.remove(block_index)
        self.retired.add(block_index)

    def draw_spare(self, plane: int) -> bool:
        """Promote one factory spare into ``plane``'s free list.

        Returns False when the plane's spare pool is exhausted — the
        signal that further retirements shrink usable over-provisioning.
        """
        spares = self.spare_blocks[plane]
        if not spares:
            return False
        self.free_blocks[plane].append(spares.pop())
        return True

    def detach_write_point(self, block_index: int) -> None:
        """Detach a failing block from its plane's write points.

        The host stream must always have an active block, so it rolls
        over to a fresh one immediately (raising
        :class:`FlashOutOfSpace` if none remain); the GC stream is
        lazily reopened on next use.
        """
        plane = self.geometry.plane_of_block(block_index)
        if self.gc_active_block[plane] == block_index:
            self.gc_active_block[plane] = None
        if self.active_block[plane] == block_index:
            self.active_block[plane] = self._pop_free_block(plane)

    def erase(self, block_index: int) -> None:
        """Erase ``block_index`` and return it to its plane's free list.

        The caller (GC) must have migrated or invalidated every valid
        page first; erasing live data is a bug, not a policy choice.
        """
        if block_index in self.retired:
            raise ValueError(f"refusing to erase retired block {block_index}")
        if self.valid_count[block_index] != 0:
            raise ValueError(
                f"refusing to erase block {block_index}: "
                f"{self.valid_count[block_index]} valid pages remain"
            )
        plane = self.geometry.plane_of_block(block_index)
        if self.block_is_active(block_index):
            raise ValueError(f"refusing to erase active block {block_index}")
        base = self.geometry.first_ppn_of_block(block_index)
        written = self.write_ptr[block_index]
        self.page_state[base : base + written] = bytes(written)  # FREE is 0
        self.write_ptr[block_index] = 0
        self.last_program_seq[block_index] = self.total_programs
        self.erase_count[block_index] += 1
        self.total_erases += 1
        self.free_blocks[plane].append(block_index)

    # ------------------------------------------------------------------
    # Invariant checking (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Recompute per-block counters from page states and compare."""
        g = self.geometry
        for block in range(self.config.n_blocks):
            base = g.first_ppn_of_block(block)
            n_valid = 0
            highest_used = 0
            for off in range(self.config.pages_per_block):
                s = self.page_state[base + off]
                if s == PageState.VALID:
                    n_valid += 1
                if s != PageState.FREE:
                    highest_used = off + 1
            assert n_valid == self.valid_count[block], (
                f"block {block}: valid_count {self.valid_count[block]} "
                f"but {n_valid} valid pages"
            )
            assert highest_used <= self.write_ptr[block], (
                f"block {block}: page programmed beyond write_ptr"
            )
        for plane in g.planes():
            for block in self.free_blocks[plane]:
                assert self.write_ptr[block] == 0, f"free block {block} not erased"
                assert g.plane_of_block(block) == plane
                assert block not in self.retired, f"retired block {block} on free list"
            for block in self.spare_blocks[plane]:
                assert self.write_ptr[block] == 0, f"spare block {block} not erased"
                assert g.plane_of_block(block) == plane
                assert block not in self.retired, f"retired block {block} in spares"
                assert block not in self.free_blocks[plane], (
                    f"block {block} both spare and free"
                )
            assert g.plane_of_block(self.active_block[plane]) == plane
            gc_blk = self.gc_active_block[plane]
            if gc_blk is not None:
                assert g.plane_of_block(gc_blk) == plane
                assert gc_blk != self.active_block[plane]
        for block in self.retired:
            assert self.valid_count[block] == 0, (
                f"retired block {block} still holds valid pages"
            )
            assert not self.block_is_active(block), (
                f"retired block {block} is a write point"
            )
