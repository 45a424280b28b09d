"""Garbage collection: greedy (SSDsim default) or cost-benefit.

When a plane's free-block ratio drops below ``gc_threshold`` (Table 1:
10%), the collector repeatedly picks a victim block, migrates its valid
pages into the plane's active block, erases it, and stops once the free
ratio recovers to ``gc_low_watermark``.  Two victim policies:

* ``greedy`` — fewest valid pages (the SSDsim default and what the
  paper's evaluation runs);
* ``cost_benefit`` — maximise ``(1 - u) * age / (2u)`` (Rosenblum &
  Ousterhout's LFS cleaner adapted to flash), where ``u`` is the
  block's valid fraction and ``age`` the programs elapsed since the
  block was last written.  Kept as an ablation: hot/cold-aware victim
  choice matters under skewed rewrites.

Migration reads and programs are scheduled on the owning plane's
timeline, so GC delays subsequent host operations on that plane exactly
as in SSDsim; erase adds its 15 ms on top.  The migration itself is
:meth:`PageFTL.migrate_block <repro.ssd.ftl.PageFTL.migrate_block>`,
the loop the bad-block rescue also uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.faults.injector import NULL_FAULTS
from repro.obs.events import GcErase
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashArray, FlashOutOfSpace
from repro.ssd.geometry import Geometry
from repro.ssd.resources import ResourceTimelines

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.injector import FaultInjector
    from repro.ssd.ftl import PageFTL

__all__ = ["GCStats", "GarbageCollector"]


@dataclass
class GCStats:
    """Counters accumulated over a replay."""

    invocations: int = 0
    blocks_erased: int = 0
    pages_migrated: int = 0
    busy_ms: float = 0.0

    def merge(self, other: "GCStats") -> None:
        """Fold another counter set into this one."""
        self.invocations += other.invocations
        self.blocks_erased += other.blocks_erased
        self.pages_migrated += other.pages_migrated
        self.busy_ms += other.busy_ms


#: Recognised victim-selection policies.
VICTIM_POLICIES = ("greedy", "cost_benefit")


class GarbageCollector:
    """Per-plane garbage collector with pluggable victim selection."""

    __slots__ = (
        "config",
        "geometry",
        "flash",
        "resources",
        "stats",
        "tracer",
        "faults",
        "profiler",
        "_wear_aware",
        "victim_policy",
        "_bpp",
        "_thr_blocks",
        "_low_blocks",
    )

    def __init__(
        self,
        config: SSDConfig,
        geometry: Geometry,
        flash: FlashArray,
        resources: ResourceTimelines,
        wear_aware: bool = False,
        victim_policy: str = "greedy",
        tracer: "Tracer | None" = None,
        faults: "FaultInjector | None" = None,
        profiler: "PhaseProfiler | None" = None,
    ) -> None:
        if victim_policy not in VICTIM_POLICIES:
            raise ValueError(
                f"unknown victim_policy {victim_policy!r}; "
                f"choose from {VICTIM_POLICIES}"
            )
        self.config = config
        self.geometry = geometry
        self.flash = flash
        self.resources = resources
        self.stats = GCStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.faults = faults if faults is not None else NULL_FAULTS
        #: Phase profiler (see :mod:`repro.obs.profile`); GC time is
        #: accumulated under the ``"gc"`` phase.
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self._wear_aware = wear_aware
        self.victim_policy = victim_policy
        # The trigger check runs once per host program, so the ratio
        # comparisons are precomputed into exact free-block counts.
        # Found by scanning (not ``ceil(thr * bpp)``): the comparison
        # must agree bit-for-bit with ``n / bpp >= thr`` for every n, and
        # the float product rounds differently for some thresholds.
        bpp = config.blocks_per_plane
        self._bpp = bpp
        self._thr_blocks = next(
            (n for n in range(bpp + 1) if n / bpp >= config.gc_threshold), bpp + 1
        )
        self._low_blocks = next(
            (n for n in range(bpp + 1) if n / bpp >= config.gc_low_watermark),
            bpp + 1,
        )

    # ------------------------------------------------------------------
    # Victim selection.  A block is collectable when it is not a write
    # point (host or GC stream), not free (``write_ptr`` 0), holds at
    # least one reclaimable (invalid) page and is not retired.  Both
    # policies filter the plane's block range in one pass on hoisted
    # lists; the checks run cheapest first.
    # ------------------------------------------------------------------
    def select_victim(self, plane: int) -> Optional[int]:
        """Pick the victim block per the configured policy (see module
        docstring); ``wear_aware`` breaks ties toward younger blocks."""
        if self.victim_policy == "cost_benefit":
            return self._select_cost_benefit(plane)
        return self._select_greedy(plane)

    def _select_greedy(self, plane: int) -> Optional[int]:
        """Fewest valid pages, then (wear-aware) fewest erases; the
        first block in index order wins a tie."""
        flash = self.flash
        write_ptr = flash.write_ptr
        valid_count = flash.valid_count
        erase_count = flash.erase_count
        retired = flash.retired
        active = flash.active_block[plane]
        gc_active = flash.gc_active_block[plane]
        wear_aware = self._wear_aware
        first = plane * self._bpp
        best = None
        best_key: tuple[int, int] | None = None
        for block in range(first, first + self._bpp):
            written = write_ptr[block]
            if written == 0 or block == active or block == gc_active:
                continue
            valid = valid_count[block]
            if valid >= written or block in retired:
                continue
            key = (valid, erase_count[block] if wear_aware else 0)
            if best_key is None or key < best_key:
                best_key = key
                best = block
        return best

    def _select_cost_benefit(self, plane: int) -> Optional[int]:
        flash = self.flash
        write_ptr = flash.write_ptr
        valid_count = flash.valid_count
        erase_count = flash.erase_count
        last_program_seq = flash.last_program_seq
        retired = flash.retired
        active = flash.active_block[plane]
        gc_active = flash.gc_active_block[plane]
        wear_aware = self._wear_aware
        now_seq = flash.total_programs
        pages = self.config.pages_per_block
        first = plane * self._bpp
        best = None
        best_score = -1.0
        for block in range(first, first + self._bpp):
            written = write_ptr[block]
            if written == 0 or block == active or block == gc_active:
                continue
            valid = valid_count[block]
            if valid >= written or block in retired:
                continue
            u = valid / pages
            age = max(1, now_seq - last_program_seq[block])
            # (1-u)*age / 2u; u == 0 (fully invalid) is infinitely good.
            score = float("inf") if u == 0 else (1.0 - u) * age / (2.0 * u)
            if score > best_score or (
                score == best_score
                and wear_aware
                and best is not None
                and erase_count[block] < erase_count[best]
            ):
                best_score = score
                best = block
        return best

    def maybe_collect(self, ftl: "PageFTL", plane: int, now: float) -> float:
        """Run GC on ``plane`` if below threshold; returns the finish time
        (or ``now`` when no collection was needed)."""
        if len(self.flash.free_blocks[plane]) >= self._thr_blocks:
            return now
        return self.collect(ftl, plane, now)

    def collect(self, ftl: "PageFTL", plane: int, now: float) -> float:
        """Collect blocks until the plane recovers to the low watermark."""
        prof = self.profiler
        if not prof.enabled:
            return self._collect_impl(ftl, plane, now)
        prof.start("gc")
        try:
            return self._collect_impl(ftl, plane, now)
        finally:
            prof.stop()

    def _collect_impl(self, ftl: "PageFTL", plane: int, now: float) -> float:
        self.stats.invocations += 1
        t = now
        start = now
        flash = self.flash
        low_blocks = self._low_blocks
        while len(flash.free_blocks[plane]) < low_blocks:
            victim = self.select_victim(plane)
            if victim is None:
                if flash.free_block_count(plane) == 0:
                    raise FlashOutOfSpace(
                        f"plane {plane}: no collectable block and no free blocks; "
                        "logical footprint exceeds physical capacity"
                    )
                break  # nothing reclaimable yet; free list still has room
            t = self._collect_block(ftl, plane, victim, t)
        self.stats.busy_ms += t - start
        return t

    # ------------------------------------------------------------------
    def _collect_block(
        self, ftl: "PageFTL", plane: int, victim: int, now: float
    ) -> float:
        """Migrate valid pages out of ``victim``, then erase it."""
        flash = self.flash
        # Every migrated page is one program; counting them from the
        # program sequence keeps the tally exact if migration raises
        # (FlashOutOfSpace) part-way through the victim.
        programs_before = flash.total_programs
        try:
            t = ftl.migrate_block(victim, plane, now)
        finally:
            self.stats.pages_migrated += flash.total_programs - programs_before
        op = self.resources.schedule_erase(plane, t)
        if self.faults.enabled and self.faults.on_erase(victim, plane, op.end):
            # Erase failure: the (fully migrated) victim is retired in
            # place of being reclaimed; a spare replaces it if any are
            # left.  No GcErase event — the erase never completed.
            return op.end
        flash.erase(victim)
        self.stats.blocks_erased += 1
        if self.tracer.enabled:
            self.tracer.emit(
                GcErase(op.end, plane, victim, flash.erase_count[victim])
            )
        return op.end
