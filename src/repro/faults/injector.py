"""Fault injector: the façade the FTL and GC consult on every operation.

One :class:`FaultInjector` per device couples the seeded
:class:`~repro.faults.model.NandErrorModel` to the consequences of each
injected failure:

* **program failure** — the allocated page is burned
  (:meth:`FlashArray.mark_program_failed`), the block's surviving valid
  pages are rescued by :meth:`PageFTL.migrate_block` (the loop GC
  uses), and the block retires
  through the :class:`~repro.faults.badblocks.BadBlockManager` (drawing
  a spare while any remain).  The caller retries on a fresh block.
* **erase failure** — the GC victim (already fully migrated) retires
  instead of returning to the free list.
* **read error** — the ECC read-retry ladder schedules escalating
  re-reads on the plane timeline; exhausting the ladder counts an
  unrecoverable read (the replay continues — data loss is accounted,
  not fatal).

Failure handling never nests: while a retirement migration is in
flight the injector is *suspended*, so rescue programs cannot themselves
fail (bounded recursion, documented simplification).

The shared :data:`NULL_FAULTS` mirrors ``NULL_TRACER``: components
guard every hook with ``if faults.enabled:``, keeping the fault-free
hot path at one attribute load and branch per operation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.faults.badblocks import BadBlockManager
from repro.faults.model import NandErrorModel
from repro.faults.profile import FaultProfile
from repro.faults.report import DurabilityReport
from repro.obs.events import FaultInjected, ReadRetry
from repro.obs.tracer import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.flash import FlashArray
    from repro.ssd.ftl import PageFTL
    from repro.ssd.resources import OpTimes, ResourceTimelines

__all__ = ["FaultInjector", "NullFaultInjector", "NULL_FAULTS"]

#: Program attempts per host page before the injector gives up injecting
#: (forced success) — keeps a pathological profile from livelocking.
MAX_PROGRAM_ATTEMPTS = 3


class NullFaultInjector:
    """Disabled injector; the fault-free default (cf. ``NullTracer``)."""

    enabled = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullFaultInjector>"


#: Shared singleton — components default their ``faults`` to this.
NULL_FAULTS = NullFaultInjector()


class FaultInjector:
    """Seeded NAND fault injection + consequence handling for one device."""

    enabled = True

    __slots__ = (
        "profile",
        "seed",
        "model",
        "tracer",
        "flash",
        "bad_blocks",
        "_suspended",
        "program_fails",
        "erase_fails",
        "reads_with_retry",
        "read_retries",
        "unrecoverable_reads",
        "rescued_pages",
    )

    def __init__(
        self,
        profile: FaultProfile,
        seed: int = 0,
        rng: "np.random.Generator | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        """``seed`` feeds a fresh ``numpy.random.default_rng`` unless an
        explicit ``rng`` Generator is supplied (the seeding convention in
        CONTRIBUTING.md)."""
        self.profile = profile
        self.seed = seed
        self.model: Optional[NandErrorModel] = (
            NandErrorModel(profile, rng) if rng is not None else None
        )
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        self.flash: "FlashArray | None" = None
        self.bad_blocks: Optional[BadBlockManager] = None
        self._suspended = False
        self.program_fails = 0
        self.erase_fails = 0
        self.reads_with_retry = 0
        self.read_retries = 0
        self.unrecoverable_reads = 0
        self.rescued_pages = 0

    # ------------------------------------------------------------------
    def attach(self, flash: "FlashArray", tracer: "Tracer | None" = None) -> None:
        """Bind to a device: reserve factory spares, finalise the model."""
        if self.flash is not None:
            raise RuntimeError("fault injector already attached to a device")
        if tracer is not None:
            self.tracer = tracer
        self.flash = flash
        if self.model is None:
            self.model = NandErrorModel(
                self.profile,
                np.random.default_rng(self.seed),
                pe_cycle_limit=flash.config.pe_cycle_limit,
            )
        self.bad_blocks = BadBlockManager(flash, tracer=self.tracer)
        self.bad_blocks.reserve_spares(self.profile.spare_blocks_per_plane)

    # ------------------------------------------------------------------
    # Hooks (called by the FTL / GC behind ``if faults.enabled:``)
    # ------------------------------------------------------------------
    def on_program(
        self, ftl: "PageFTL", ppn: int, plane: int, now: float
    ) -> bool:
        """Decide and handle a program failure for the page at ``ppn``.

        Returns True when the program failed — the page is burned, the
        owning block retired (valid data rescued first) — and the caller
        must retry on a fresh allocation.  Returns False for success.
        """
        if self._suspended:
            return False
        flash = self.flash
        assert flash is not None and self.model is not None
        block = flash.geometry.block_of_ppn(ppn)
        if not self.model.program_fails(flash.erase_count[block]):
            return False
        self.program_fails += 1
        flash.mark_program_failed(ppn)
        if self.tracer.enabled:
            self.tracer.emit(FaultInjected(now, "program", plane, block))
        self._retire_with_rescue(ftl, plane, block, now, reason="program_fail")
        return True

    def on_erase(self, block: int, plane: int, now: float) -> bool:
        """Decide and handle an erase failure for a fully-migrated victim.

        Returns True when the erase failed: the block retires instead of
        rejoining the free list (the caller skips ``flash.erase``).
        """
        if self._suspended:
            return False
        flash = self.flash
        assert flash is not None and self.model is not None
        if not self.model.erase_fails(flash.erase_count[block]):
            return False
        self.erase_fails += 1
        if self.tracer.enabled:
            self.tracer.emit(FaultInjected(now, "erase", plane, block))
        assert self.bad_blocks is not None
        self.bad_blocks.retire(block, now, "erase_fail")
        return True

    def on_read(
        self,
        resources: "ResourceTimelines",
        lpn: int,
        ppn: int,
        plane: int,
        op: "OpTimes",
    ) -> "OpTimes":
        """Apply the ECC retry ladder to a completed host read.

        ``op`` is the clean read's timing; each needed retry schedules a
        slower re-read on the same plane, and the returned
        :class:`OpTimes` ends when the data finally came back (or the
        ladder gave up — unrecoverable, still accounted as the ladder's
        full duration).
        """
        if self._suspended:
            return op
        flash = self.flash
        assert flash is not None and self.model is not None
        block = flash.geometry.block_of_ppn(ppn)
        outcome = self.model.read_retries(flash.erase_count[block])
        if outcome == 0:
            return op
        ladder = self.profile.read_retry_latencies_ms
        rungs = len(ladder) if outcome is None else outcome
        t = op.end
        last = op
        for rung in range(rungs):
            last = resources.schedule_retry_read(plane, t, ladder[rung])
            t = last.end
        self.reads_with_retry += 1
        self.read_retries += rungs
        recovered = outcome is not None
        if not recovered:
            self.unrecoverable_reads += 1
        if self.tracer.enabled:
            self.tracer.emit(ReadRetry(t, lpn, plane, rungs, recovered))
        return last

    # ------------------------------------------------------------------
    def _retire_with_rescue(
        self, ftl: "PageFTL", plane: int, block: int, now: float, reason: str
    ) -> float:
        """Migrate ``block``'s valid pages out, then retire it.

        Runs suspended so rescue programs cannot recursively fail.  A
        :class:`~repro.ssd.flash.FlashOutOfSpace` raised while reopening
        the write point propagates (the controller's degraded-mode path
        catches it); the block then stays unretired but the failure was
        already counted.
        """
        flash = self.flash
        assert flash is not None
        self._suspended = True
        try:
            flash.detach_write_point(block)
            # One program per rescued page, counted from the program
            # sequence so a migration that raises part-way still tallies.
            programs_before = flash.total_programs
            try:
                t = ftl.migrate_block(block, plane, now)
            finally:
                self.rescued_pages += flash.total_programs - programs_before
            assert self.bad_blocks is not None
            self.bad_blocks.retire(block, t, reason)
            return t
        finally:
            self._suspended = False

    # ------------------------------------------------------------------
    def fill_report(self, report: DurabilityReport) -> None:
        """Copy the injector's accounting into a durability report."""
        report.fault_profile = self.profile.name
        report.fault_seed = self.seed
        report.program_fails = self.program_fails
        report.erase_fails = self.erase_fails
        report.reads_with_retry = self.reads_with_retry
        report.read_retries = self.read_retries
        report.unrecoverable_reads = self.unrecoverable_reads
        if self.bad_blocks is not None:
            report.blocks_retired = self.bad_blocks.blocks_retired
            report.spares_consumed = self.bad_blocks.spares_consumed
            report.spares_remaining = self.bad_blocks.total_spares_remaining()
        report.extra["rescued_pages"] = float(self.rescued_pages)
