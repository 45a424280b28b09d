"""DFTL-style cached mapping table (on-demand page-level FTL).

The paper's device keeps the whole page-level mapping table in DRAM
(~1 MB per GB — the "at least 100 MB of which is used to store the
mapping table" sizing in §4.1).  Devices with less DRAM cache the table
on demand instead (Gupta et al.'s DFTL): mapping entries live in
*translation pages* on flash (512 entries per 4 KB page at 8 B/entry),
and a small **Cached Mapping Table (CMT)** holds the hot translation
pages in DRAM.

:class:`CachedMappingFTL` layers exactly that onto :class:`PageFTL`:

* a host read/write first *translates* its LPN — a CMT hit is free, a
  miss schedules a flash read of the translation page (delaying the data
  operation) and, if the evicted CMT entry is dirty, a write-back
  program;
* mapping updates (host writes, GC relocations) dirty the owning
  translation page.

Simplifications (documented): translation pages are cost-only — they
occupy timing on a deterministic plane but no tracked flash capacity,
and GC relocations dirty their translation pages without charging a
lookup (real DFTL batches those updates).  This keeps the data-path
state identical to :class:`PageFTL`, so every FTL invariant test applies
unchanged, while the *timing* cost of limited mapping DRAM is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashArray, FlashOutOfSpace
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import OpTimes, ResourceTimelines
from repro.utils.dll import DLLNode, DoublyLinkedList
from repro.utils.validation import require_positive

__all__ = ["CMTStats", "CachedMappingFTL", "MAPPING_ENTRY_BYTES"]

#: 8 bytes per LPN->PPN entry (the usual DFTL assumption).
MAPPING_ENTRY_BYTES = 8


@dataclass
class CMTStats:
    """Cached-mapping-table counters."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of translations served from the CMT."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _CMTEntry(DLLNode):
    __slots__ = ("tvpn", "dirty")

    def __init__(self, tvpn: int) -> None:
        super().__init__()
        self.tvpn = tvpn
        self.dirty = False


class CachedMappingFTL(PageFTL):
    """Page-level FTL whose mapping table is cached on demand (DFTL)."""

    __slots__ = ("cmt_capacity", "entries_per_tp", "cmt_stats", "_cmt", "_cmt_list")

    def __init__(
        self,
        config: SSDConfig,
        geometry: Geometry,
        flash: FlashArray,
        resources: ResourceTimelines,
        gc: GarbageCollector,
        mapping_cache_bytes: int = 1 << 20,
        tracer=None,
        faults=None,
    ) -> None:
        super().__init__(
            config, geometry, flash, resources, gc, tracer=tracer, faults=faults
        )
        require_positive(mapping_cache_bytes, "mapping_cache_bytes")
        self.entries_per_tp = config.page_size_bytes // MAPPING_ENTRY_BYTES
        tp_bytes = self.entries_per_tp * MAPPING_ENTRY_BYTES
        self.cmt_capacity = max(1, mapping_cache_bytes // tp_bytes)
        self.cmt_stats = CMTStats()
        self._cmt: Dict[int, _CMTEntry] = {}
        self._cmt_list: DoublyLinkedList[_CMTEntry] = DoublyLinkedList("cmt")

    # ------------------------------------------------------------------
    def _tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_tp

    def _translation_plane(self, tvpn: int) -> int:
        """Deterministic plane holding a translation page (cost-only)."""
        return tvpn % self.config.n_planes

    def _translate(self, lpn: int, now: float, dirty: bool) -> float:
        """Resolve ``lpn``'s translation page; returns when it is ready.

        CMT hit: ready at ``now``.  Miss: the translation page is read
        from flash (and a dirty victim written back first), delaying the
        caller's data operation.
        """
        tvpn = self._tvpn_of(lpn)
        entry = self._cmt.get(tvpn)
        if entry is not None:
            self.cmt_stats.hits += 1
            self._cmt_list.move_to_head(entry)
            entry.dirty = entry.dirty or dirty
            return now
        self.cmt_stats.misses += 1
        t = now
        if len(self._cmt) >= self.cmt_capacity:
            victim = self._cmt_list.pop_tail()
            assert victim is not None
            del self._cmt[victim.tvpn]
            if victim.dirty:
                # Write the victim translation page back to flash.
                op = self.resources.schedule_program(
                    self._translation_plane(victim.tvpn), t
                )
                t = op.xfer_end
                self.cmt_stats.writebacks += 1
        op = self.resources.schedule_read(self._translation_plane(tvpn), t)
        t = op.end
        entry = _CMTEntry(tvpn)
        entry.dirty = dirty
        self._cmt[tvpn] = entry
        self._cmt_list.push_head(entry)
        return t

    # ------------------------------------------------------------------
    # Host path: translate, then defer to the plain page FTL.
    # ------------------------------------------------------------------
    def write_batch(
        self,
        lpns: List[int],
        now: float,
        planes: Optional[List[int]] = None,
    ) -> "tuple[float, int, Optional[FlashOutOfSpace]]":
        """Per page, translate then program (a :meth:`PageFTL.write_batch`
        of one page, issued when its translation is ready), so each page
        pays its own translation charge; returns what ``PageFTL``'s
        does."""
        xfer_done = now
        write_one = super().write_batch
        n_pl = len(planes) if planes else 0
        for i, lpn in enumerate(lpns):
            ready = self._translate(lpn, now, dirty=True)
            t, _done, err = write_one(
                [lpn], ready, [planes[i % n_pl]] if planes else None
            )
            if err is not None:
                return xfer_done, i, err
            if t > xfer_done:
                xfer_done = t
        return xfer_done, len(lpns), None

    def read_page(self, lpn: int, now: float) -> OpTimes:
        """Translate (possibly via flash), then read as PageFTL does."""
        ready = self._translate(lpn, now, dirty=False)
        return super().read_page(lpn, ready)

    def read_batch(self, lpns: List[int], now: float) -> float:
        """Per page, translate then read (:meth:`read_page`), so each
        page pays its own translation charge; returns the latest end."""
        done = now
        read_page = self.read_page
        for lpn in lpns:
            end = read_page(lpn, now).end
            if end > done:
                done = end
        return done

    # GC relocations update mappings in place; real DFTL batches these
    # updates per victim block, so we dirty the translation pages without
    # charging a lookup.
    def migrate_block(self, block: int, plane: int, now: float) -> float:
        """Block migration; dirties the cached translation page of every
        live LPN in ``block`` first (relocation never touches the CMT,
        so marking up front ends in the same state as marking per page),
        then migrates as PageFTL does."""
        cmt = self._cmt
        for ppn in self.flash.valid_pages_of_block(block):
            lpn = self.rmap_lookup(ppn)
            if lpn is not None:
                entry = cmt.get(self._tvpn_of(lpn))
                if entry is not None:
                    entry.dirty = True
        return super().migrate_block(block, plane, now)

    # ------------------------------------------------------------------
    def on_power_loss(self) -> None:
        """The CMT is DRAM: it empties at power loss (translation pages
        on flash survive; the mount scan recovers the full table)."""
        self._cmt.clear()
        self._cmt_list = DoublyLinkedList("cmt")

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """PageFTL invariants plus CMT size/list consistency."""
        super().validate()
        assert len(self._cmt) <= self.cmt_capacity
        self._cmt_list.validate()
        assert len(self._cmt_list) == len(self._cmt)
        for entry in self._cmt_list:
            assert self._cmt.get(entry.tvpn) is entry
