"""Page-level flash translation layer.

Maintains the LPN -> PPN mapping (and its inverse for GC), allocates
physical pages, and schedules the flash operations on the resource
timelines.  Two allocation disciplines are provided:

* **dynamic striping** (default): consecutive writes rotate over planes
  in channel-fastest order, so a batch of N pages spreads across
  channels and chips — this is how page-level FTLs exploit internal
  parallelism, and why batched evictions are cheap for VBBMS/Req-block;
* **pinned**: all pages of a batch are confined to one channel —
  used to model BPLRU's whole-block-to-one-SSD-block flush, the paper's
  explanation for BPLRU's inferior response times (§4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.faults.injector import MAX_PROGRAM_ATTEMPTS, NULL_FAULTS
from repro.obs.events import FlashWrite, GcMigrate
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashArray, FlashOutOfSpace
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import OpTimes, ResourceTimelines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["FTLStats", "PageFTL"]

#: Device sizes (total physical pages) up to this use a flat list for
#: the reverse map (ppn -> lpn, -1 = none): an indexed load beats the
#: dict probe on the per-program invalidation path, and 4 Mi entries
#: bound the sentinel storage at ~32 MB.  Larger devices keep the
#: sparse dict (only written PPNs are stored).
_RMAP_LIST_MAX_PAGES = 1 << 22


@dataclass(slots=True)
class FTLStats:
    """Flash traffic counters (GC traffic is tracked by GCStats)."""

    host_programs: int = 0
    host_reads: int = 0
    unmapped_reads: int = 0

    def merge(self, other: "FTLStats") -> None:
        """Fold another counter set into this one."""
        self.host_programs += other.host_programs
        self.host_reads += other.host_reads
        self.unmapped_reads += other.unmapped_reads


class PageFTL:
    """Page-mapping FTL with dynamic or pinned allocation."""

    __slots__ = (
        "config",
        "geometry",
        "flash",
        "resources",
        "gc",
        "stats",
        "tracer",
        "faults",
        "_map",
        "_n_mapped",
        "_rmap",
        "_rmap_list",
        "_alloc_order",
        "_rr",
        "_ppb",
        "_gc_thr",
        "_n_planes",
        "_last_op",
    )

    def __init__(
        self,
        config: SSDConfig,
        geometry: Geometry,
        flash: FlashArray,
        resources: ResourceTimelines,
        gc: GarbageCollector,
        tracer: Optional[Tracer] = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        # The write and migration loops inline ResourceTimelines'
        # scheduling arithmetic, so any other timelines class (a
        # subclass, or the event-driven cross-check scheduler) would be
        # silently bypassed.
        if type(resources) is not ResourceTimelines:
            raise TypeError(
                f"PageFTL needs ResourceTimelines, got {type(resources).__name__}"
            )
        self.config = config
        self.geometry = geometry
        self.flash = flash
        self.resources = resources
        self.gc = gc
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Fault injector hook (see :mod:`repro.faults`); the disabled
        #: default costs one attribute load + branch per flash op.
        self.faults = faults if faults is not None else NULL_FAULTS
        self.stats = FTLStats()
        # Forward table: flat list indexed by LPN (-1 = unmapped), grown
        # lazily to the trace's footprint.  A list probe is ~2x cheaper
        # than a dict hit and the key space is dense.
        self._map: List[int] = []
        self._n_mapped = 0
        # Reverse table: flat when the device is small enough (see
        # _RMAP_LIST_MAX_PAGES), sparse dict otherwise.
        n_pages = len(flash.page_state)
        self._rmap_list = n_pages <= _RMAP_LIST_MAX_PAGES
        self._rmap: "Dict[int, int] | List[int]" = (
            [-1] * n_pages if self._rmap_list else {}
        )
        # Channel-fastest plane rotation: consecutive allocations hit
        # different channels first, then different chips, then planes —
        # maximising bus/cell overlap for batched writes.
        order: List[int] = []
        for plane_in_chip in range(config.planes_per_chip):
            for chip_in_channel in range(config.chips_per_channel):
                for channel in range(config.n_channels):
                    chip = channel * config.chips_per_channel + chip_in_channel
                    order.append(chip * config.planes_per_chip + plane_in_chip)
        self._alloc_order = order
        self._rr = 0
        # Write-loop constants: ``write_batch`` inlines the flash
        # allocate/program bookkeeping and the GC trigger check, so it
        # needs the block geometry and the collector's exact free-block
        # threshold as plain ints.
        self._ppb = config.pages_per_block
        self._gc_thr = gc._thr_blocks
        # The read path places unmapped reads by plane count; the config
        # derives it through two properties per access.
        self._n_planes = config.n_planes
        #: ``(start, xfer_end, end)`` of the last program attempt
        #: ``write_batch`` scheduled; ``write_page`` returns it.
        self._last_op = (0.0, 0.0, 0.0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_mapped(self, lpn: int) -> bool:
        """Whether ``lpn`` currently has a physical copy."""
        m = self._map
        return 0 <= lpn < len(m) and m[lpn] >= 0

    def lookup(self, lpn: int) -> Optional[int]:
        """The PPN backing ``lpn``, or None if never written."""
        m = self._map
        if 0 <= lpn < len(m):
            ppn = m[lpn]
            if ppn >= 0:
                return ppn
        return None

    def mapped_count(self) -> int:
        """Number of live LPN -> PPN mappings."""
        return self._n_mapped

    def mapped_lpns(self) -> List[int]:
        """All currently mapped LPNs (ascending); for tests and recovery."""
        return [lpn for lpn, ppn in enumerate(self._map) if ppn >= 0]

    def rmap_lookup(self, ppn: int) -> Optional[int]:
        """The live LPN stamped on ``ppn``, or None (either rmap shape)."""
        if self._rmap_list:
            lpn = self._rmap[ppn]
            return None if lpn < 0 else lpn
        return self._rmap.get(ppn)  # type: ignore[union-attr]

    def _rmap_items(self) -> "List[tuple[int, int]]":
        """Live ``(ppn, lpn)`` pairs (either rmap shape); cold paths only."""
        if self._rmap_list:
            return [(p, l) for p, l in enumerate(self._rmap) if l >= 0]
        return list(self._rmap.items())  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Host operations
    # ------------------------------------------------------------------
    def pinned_channel_for(self, key: int) -> int:
        """A deterministic channel for callers that pin batches (BPLRU):
        batch ``key`` (the logical block number) always maps to the same
        channel, mimicking a block-mapped flush target.  The flush may
        still interleave over that channel's chips/planes, but cannot
        spread across channels (the paper's §4.2.2 observation)."""
        return key % self.config.n_channels

    def planes_of_channel(self, channel: int) -> List[int]:
        """Global plane indices belonging to ``channel``."""
        c = self.config
        first_chip = channel * c.chips_per_channel
        return [
            chip * c.planes_per_chip + plane
            for chip in range(first_chip, first_chip + c.chips_per_channel)
            for plane in range(c.planes_per_chip)
        ]

    def write_page(
        self, lpn: int, now: float, plane: Optional[int] = None
    ) -> OpTimes:
        """Program the current data of ``lpn``; returns the op's timing.

        The single-page API: a :meth:`write_batch` of one page, pinned
        to ``plane`` when given.  Invalidates any previous physical
        copy, allocates in ``plane`` (or the next plane in the stripe
        rotation), and runs GC on that plane afterwards if it crossed
        the free-space threshold.  The returned end time does *not*
        include GC — GC is background work that occupies the plane
        timeline and delays later operations.  Raises the
        ``FlashOutOfSpace`` that stopped the write, also one raised by
        the post-write GC.
        """
        _xfer_done, _done, err = self.write_batch(
            [lpn], now, None if plane is None else [plane]
        )
        if err is not None:
            raise err
        return OpTimes(*self._last_op)

    def write_batch(
        self,
        lpns: List[int],
        now: float,
        planes: Optional[List[int]] = None,
    ) -> "tuple[float, int, Optional[FlashOutOfSpace]]":
        """Program a whole flush batch, every page issued at ``now``.

        The one loop that programs host pages.  Per page, in order:

        1. pick the target plane — ``planes[i % len(planes)]`` for a
           pinned batch, else the next plane of the channel-fastest
           rotation;
        2. allocate in that plane's host active block and schedule the
           program (bus transfer, then cell program);
        3. with fault injection on, hand the page to
           ``faults.on_program``: each failure burns it, rescues and
           retires its block, and the page is allocated and scheduled
           again at the failed attempt's end (at most
           ``MAX_PROGRAM_ATTEMPTS`` attempts);
        4. look up the old copy — only now, since a rescue may have
           relocated it — invalidate it, mark the new page VALID and
           map it;
        5. with a tracer attached, sync the counters and emit
           ``FlashWrite`` (an invariant checker validates the device at
           that event);
        6. run GC on the plane if it fell below its free-block
           threshold.

        The ``FlashArray`` allocate/invalidate/program bookkeeping and
        the ``ResourceTimelines.schedule_program`` arithmetic are
        inlined (same float operations, same order as those methods;
        their state guards are invariants here, pinned by
        ``tests/ssd/test_write_batch.py``), and the per-page locals —
        flash arrays, timelines, the mapping tables, the plane rotation
        and the program sequence counter — are hoisted out of the loop.

        Returns ``(xfer_done, done, err)``: the latest bus-transfer end
        among the accounted pages (``now`` when none was), the number
        of pages to account, and the ``FlashOutOfSpace`` that stopped
        the batch (None when it completed).  A page whose *post-write
        GC* raised is programmed but not accounted.
        """
        flash = self.flash
        res = self.resources
        stats = self.stats
        ppb = self._ppb
        gc_thr = self._gc_thr
        write_ptr = flash.write_ptr
        active_block = flash.active_block
        page_state = flash.page_state
        valid_count = flash.valid_count
        free_blocks = flash.free_blocks
        last_seq = flash.last_program_seq
        pop_free = flash._pop_free_block
        chan_of = res._chan_of
        bus_free = res.bus_free
        plane_free = res.plane_free
        xfer = res._xfer
        prog_ms = res._prog_ms
        bus_busy = res.bus_busy_ms
        plane_busy = res.plane_busy_ms
        m = self._map
        rmap = self._rmap
        rmap_list = self._rmap_list
        order = self._alloc_order
        n_order = len(order)
        rr = self._rr
        seq = flash.total_programs
        gc_collect = self.gc.collect
        faults = self.faults
        faulty = faults.enabled
        tracer = self.tracer
        traced = tracer.enabled
        n_pl = len(planes) if planes else 0
        xfer_done = now
        done = 0
        # Host programs and new mappings not yet added to the counters
        # (synced per page when traced, else once after the loop).
        programmed = 0
        n_mapped_add = 0
        start = xfer_end = end = now
        err: Optional[FlashOutOfSpace] = None
        try:
            for i, lpn in enumerate(lpns):
                if planes is None:
                    target_plane = order[rr]
                    rr += 1
                    if rr >= n_order:
                        rr = 0
                else:
                    target_plane = planes[i % n_pl]
                # Allocation precedes invalidation of the old copy, so an
                # out-of-space failure leaves the mapping untouched (the
                # write is lost, the previous version survives).
                block = active_block[target_plane]
                ptr = write_ptr[block]
                if ptr >= ppb:
                    block = pop_free(target_plane)
                    active_block[target_plane] = block
                    ptr = write_ptr[block]
                ppn = block * ppb + ptr
                write_ptr[block] = ptr + 1
                channel = chan_of[target_plane]
                busy = bus_free[channel]
                start = now if now > busy else busy
                xfer_end = start + xfer
                busy = plane_free[target_plane]
                prog_start = xfer_end if xfer_end > busy else busy
                end = prog_start + prog_ms
                bus_free[channel] = xfer_end
                plane_free[target_plane] = end
                bus_busy[channel] += xfer
                plane_busy[target_plane] += prog_ms
                if faulty:
                    # A rescue migrates pages (bumping the program
                    # sequence) and may raise part-way: sync the counter
                    # in and reload it whatever happens.
                    flash.total_programs = seq
                    try:
                        for _ in range(MAX_PROGRAM_ATTEMPTS - 1):
                            if not faults.on_program(self, ppn, target_plane, end):
                                break
                            ppn = flash.allocate_page(target_plane)
                            start, xfer_end, end = res.schedule_program(
                                target_plane, end
                            )
                    finally:
                        seq = flash.total_programs
                    block = ppn // ppb
                if lpn >= len(m):
                    m.extend([-1] * (lpn + 1 - len(m)))
                old = m[lpn]
                if old >= 0:
                    page_state[old] = 2  # PageState.INVALID
                    valid_count[old // ppb] -= 1
                    if rmap_list:
                        rmap[old] = -1
                    else:
                        del rmap[old]
                else:
                    n_mapped_add += 1
                page_state[ppn] = 1  # PageState.VALID
                valid_count[block] += 1
                seq += 1
                last_seq[block] = seq
                m[lpn] = ppn
                rmap[ppn] = lpn
                programmed += 1
                if traced:
                    flash.total_programs = seq
                    stats.host_programs += programmed
                    self._n_mapped += n_mapped_add
                    programmed = n_mapped_add = 0
                    tracer.emit(FlashWrite(now, lpn, ppn, target_plane))
                if len(free_blocks[target_plane]) < gc_thr:
                    # GC relocates pages and may raise after some of
                    # them: sync the counter in and reload it either way.
                    flash.total_programs = seq
                    try:
                        gc_collect(self, target_plane, end)
                    finally:
                        seq = flash.total_programs
                done += 1
                if xfer_end > xfer_done:
                    xfer_done = xfer_end
        except FlashOutOfSpace as exc:
            err = exc
        self._rr = rr
        flash.total_programs = seq
        stats.host_programs += programmed
        self._n_mapped += n_mapped_add
        self._last_op = (start, xfer_end, end)
        return xfer_done, done, err

    def read_page(self, lpn: int, now: float) -> OpTimes:
        """Schedule a flash read of ``lpn``.

        Reads of never-written LPNs (cold data predating the trace) cost
        a real flash read on a deterministic pseudo-location — the data
        exists on the device even though this replay never wrote it.
        """
        m = self._map
        ppn = m[lpn] if lpn < len(m) else -1
        if ppn < 0:
            self.stats.unmapped_reads += 1
            plane = lpn % self.config.n_planes
            return self.resources.schedule_read(plane, now)
        self.stats.host_reads += 1
        plane = self.geometry.plane_of_ppn(ppn)
        op = self.resources.schedule_read(plane, now)
        if self.faults.enabled:
            # ECC retry ladder (mapped reads only — pseudo-location
            # reads of pre-trace data carry no modeled block wear).
            op = self.faults.on_read(self.resources, lpn, ppn, plane, op)
        return op

    def read_batch(self, lpns: List[int], now: float) -> float:
        """Read every LPN of ``lpns`` in order, all issued at ``now``.

        The controller's read-miss path: returns the latest read end, or
        ``now`` for an empty list.  Equivalent to folding
        ``read_page(lpn, now).end`` into a running maximum that starts
        at ``now`` (same float operations, same order per page, same
        ``FTLStats`` read counters; with fault injection on, the ECC
        retry ladder runs on each mapped page right after its read), but
        with the map, the ``ResourceTimelines.schedule_read`` arithmetic
        and the latencies hoisted out of the loop.
        """
        m = self._map
        n_map = len(m)
        pages_per_plane = self.geometry._pages_per_plane
        n_planes = self._n_planes
        res = self.resources
        chan_of = res._chan_of
        bus_free = res.bus_free
        plane_free = res.plane_free
        bus_busy = res.bus_busy_ms
        plane_busy = res.plane_busy_ms
        read_ms = res._read_ms
        xfer = res._xfer
        faults = self.faults
        faulty = faults.enabled
        done = now
        mapped = unmapped = 0
        try:
            for lpn in lpns:
                ppn = m[lpn] if lpn < n_map else -1
                if ppn < 0:
                    unmapped += 1
                    plane = lpn % n_planes
                else:
                    mapped += 1
                    plane = ppn // pages_per_plane
                channel = chan_of[plane]
                busy = plane_free[plane]
                cell_start = now if now > busy else busy
                cell_end = cell_start + read_ms
                busy = bus_free[channel]
                xfer_start = cell_end if cell_end > busy else busy
                end = xfer_start + xfer
                bus_free[channel] = end
                plane_free[plane] = end
                bus_busy[channel] += xfer
                plane_busy[plane] += end - cell_start
                if faulty and ppn >= 0:
                    end = faults.on_read(
                        res, lpn, ppn, plane, OpTimes(cell_start, end, end)
                    ).end
                if end > done:
                    done = end
        finally:
            stats = self.stats
            stats.host_reads += mapped
            stats.unmapped_reads += unmapped
        return done

    # ------------------------------------------------------------------
    # GC support
    # ------------------------------------------------------------------
    def migrate_block(self, block: int, plane: int, now: float) -> float:
        """Relocate every valid page of ``block``; returns the end time.

        The one migration loop: garbage collection and the bad-block
        rescue both call it.  Pages move in offset order.  Each is read
        out of ``block`` and then programmed into ``plane``'s GC write
        point: the GC stream's active block under
        ``gc_stream_separation``, the host active block otherwise.  Both
        operations are scheduled on ``plane``, the read from the
        previous page's program end (``now`` for the first page), the
        program from the read's end; the return value is the last
        program's end, or ``now`` when no page was valid.  A page's
        destination is allocated before its old copy is invalidated, so
        when the plane runs out of space (:class:`FlashOutOfSpace`) the
        LPN stays mapped to its still-valid page.

        The ``ResourceTimelines.schedule_read`` / ``schedule_program``
        arithmetic and the ``FlashArray`` allocate/invalidate/program
        bookkeeping are inlined (same float operations, same order),
        keeping their guards: a valid page with no live LPN raises
        ``ValueError``, as does programming a page that is not FREE, and
        a free-list block must be erased.  ``block`` must not be a write
        point; migration never triggers nested GC.
        """
        flash = self.flash
        res = self.resources
        ppb = self._ppb
        page_state = flash.page_state
        valid_count = flash.valid_count
        write_ptr = flash.write_ptr
        last_seq = flash.last_program_seq
        pop_free = flash._pop_free_block
        # The GC stream shares the host active block unless separated.
        if self.config.gc_stream_separation:
            write_points = flash.gc_active_block
        else:
            write_points = flash.active_block
        m = self._map
        rmap = self._rmap
        rmap_list = self._rmap_list
        tracer = self.tracer
        traced = tracer.enabled
        xfer = res._xfer
        read_ms = res._read_ms
        prog_ms = res._prog_ms
        # Only this plane and its channel are touched, and nothing reads
        # the timelines mid-migration: keep them in locals and store
        # them back once (also when a guard raises part-way).
        channel = res._chan_of[plane]
        bus_t = res.bus_free[channel]
        plane_t = res.plane_free[plane]
        bus_busy = res.bus_busy_ms[channel]
        plane_busy = res.plane_busy_ms[plane]
        seq = flash.total_programs
        t = now
        base = block * ppb
        try:
            for ppn in range(base, base + write_ptr[block]):
                if page_state[ppn] != 1:  # PageState.VALID
                    continue
                # Read out of the victim (ResourceTimelines.schedule_read).
                cell_start = t if t > plane_t else plane_t
                cell_end = cell_start + read_ms
                xfer_start = cell_end if cell_end > bus_t else bus_t
                t = bus_t = plane_t = xfer_start + xfer
                bus_busy += xfer
                plane_busy += t - cell_start
                read_end = t
                lpn = rmap[ppn] if rmap_list else rmap.get(ppn, -1)
                if lpn < 0:
                    raise ValueError(f"migrate_block: ppn {ppn} holds no live LPN")
                # Allocate in the GC write point (FlashArray.allocate_page),
                # before the old copy is dropped.
                dst = write_points[plane]
                if dst is None:
                    dst = pop_free(plane)
                    write_points[plane] = dst
                ptr = write_ptr[dst]
                if ptr >= ppb:
                    dst = pop_free(plane)
                    write_points[plane] = dst
                    ptr = write_ptr[dst]
                    assert ptr == 0, "free-list block was not erased"
                new_ppn = dst * ppb + ptr
                write_ptr[dst] = ptr + 1
                # Drop the old copy.
                if rmap_list:
                    rmap[ppn] = -1
                else:
                    del rmap[ppn]
                page_state[ppn] = 2  # PageState.INVALID
                valid_count[block] -= 1
                # Program it (ResourceTimelines.schedule_program).  The
                # read left the bus and the plane free at t, so the
                # transfer starts at t and the cell program right after.
                bus_t = t + xfer
                t = plane_t = bus_t + prog_ms
                bus_busy += xfer
                plane_busy += prog_ms
                # FlashArray.program, then the new mapping.
                if page_state[new_ppn] != 0:  # PageState.FREE
                    raise ValueError(f"ppn {new_ppn} programmed twice without erase")
                page_state[new_ppn] = 1  # PageState.VALID
                valid_count[dst] += 1
                seq += 1
                last_seq[dst] = seq
                m[lpn] = new_ppn
                rmap[new_ppn] = lpn
                if traced:
                    flash.total_programs = seq
                    tracer.emit(GcMigrate(read_end, lpn, ppn, new_ppn, plane))
        finally:
            res.bus_free[channel] = bus_t
            res.plane_free[plane] = plane_t
            res.bus_busy_ms[channel] = bus_busy
            res.plane_busy_ms[plane] = plane_busy
            flash.total_programs = seq
        return t

    # ------------------------------------------------------------------
    # Power-loss recovery (see repro.faults.powerloss)
    # ------------------------------------------------------------------
    def on_power_loss(self) -> None:
        """Drop DRAM-resident FTL state that dies with the power rails.

        The base page-level table is rebuilt from flash by
        :meth:`rebuild_mapping`; subclasses with extra volatile state
        (the DFTL mapping cache) override this to clear it.
        """

    def rebuild_mapping(self) -> int:
        """Mount-time OOB scan: rebuild the LPN→PPN table from flash.

        Each programmed page's OOB area stores its LPN (standard FTL
        practice); the simulator models that stamp with ``_rmap``, so
        the scan re-derives the forward table from the reverse one and
        asserts the result is a bijection onto exactly the VALID pages
        — the crash-consistency property the fuzz tests pin.  Returns
        the number of mappings recovered.
        """
        from repro.ssd.flash import PageState

        state = self.flash.page_state
        rebuilt: Dict[int, int] = {}
        for ppn, lpn in self._rmap_items():
            assert state[ppn] == PageState.VALID, (
                f"OOB scan found lpn {lpn} stamped on non-valid ppn {ppn}"
            )
            assert lpn not in rebuilt, (
                f"OOB scan found lpn {lpn} stamped on two valid pages"
            )
            rebuilt[lpn] = ppn
        current = {
            lpn: ppn for lpn, ppn in enumerate(self._map) if ppn >= 0
        }
        assert rebuilt == current, "rebuilt mapping diverges from pre-loss table"
        new_map = [-1] * len(self._map)
        for lpn, ppn in rebuilt.items():
            new_map[lpn] = ppn
        self._map = new_map
        self._n_mapped = len(rebuilt)
        return len(rebuilt)

    # ------------------------------------------------------------------
    # Invariants (tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Mapping must be a bijection onto exactly the VALID flash pages."""
        from repro.ssd.flash import PageState

        n_mapped = 0
        for lpn, ppn in enumerate(self._map):
            if ppn < 0:
                continue
            n_mapped += 1
            assert self.rmap_lookup(ppn) == lpn, f"rmap mismatch at lpn {lpn}"
            assert (
                self.flash.page_state[ppn] == PageState.VALID
            ), f"lpn {lpn} maps to non-valid ppn {ppn}"
        assert n_mapped == self._n_mapped, (
            f"mapped-count cache {self._n_mapped} != scanned {n_mapped}"
        )
        assert n_mapped == len(self._rmap_items()), "map/rmap size mismatch"
        n_valid = sum(self.flash.valid_count)
        assert n_valid == n_mapped, (
            f"{n_valid} valid flash pages but {n_mapped} mapped LPNs"
        )
