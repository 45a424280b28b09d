"""Power-loss injection and mount-time recovery.

The paper's DRAM write buffer is exactly the data a power cut destroys:
every policy holds *dirty* pages in DRAM (the write buffer never caches
clean reads), so at the loss instant the durability exposure equals the
cache occupancy — and cache-management policy directly decides how much
data dies.  That makes lost-writes-at-power-loss a first-class metric
for comparing Req-block against LRU/BPLRU/VBBMS.

Model (see docs/fault_injection.md):

1. **Loss** — the cache is drained *without* writing: the policy's
   ``flush_all`` yields the dirty census; an optional capacitor budget
   (``capacitor_pages``, modelling power-loss-protection capacitors)
   flushes the first N pages of that batch to flash before the rails
   fall; the rest are lost.
2. **Mount** — the FTL mapping is rebuilt by scanning every written
   physical page's OOB area (LPN stamps); the modeled scan time
   (``mount_base_ms + mount_scan_ms_per_page × written pages``) stalls
   every channel and plane timeline, so post-recovery requests queue
   behind the mount exactly like a real remount.
3. **Verification** — the rebuilt mapping must be a bijection onto the
   VALID flash pages (:meth:`PageFTL.rebuild_mapping` asserts this);
   the invariant checker re-validates the whole device on the
   :class:`~repro.obs.events.RecoveryComplete` event.

Capacitor flushes run through the normal FTL write path and may trigger
GC or even degraded mode (a dying, full device can lose *more* than the
capacitor promised) — a deliberate, documented simplification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.faults.profile import FaultProfile
from repro.faults.report import PowerLossReport
from repro.obs.events import PowerLoss, RecoveryComplete

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ssd.controller import SSDController

__all__ = ["inject_power_loss"]

#: Lost LPNs retained in the report for diagnostics.
LOST_LPN_SAMPLE = 16


def inject_power_loss(
    controller: "SSDController",
    now: float,
    at_request: int = -1,
    capacitor_pages: int = 0,
    profile: Optional[FaultProfile] = None,
) -> PowerLossReport:
    """Cut power at simulated time ``now``; returns the loss/recovery report.

    ``capacitor_pages`` is the power-loss-protection budget: how many
    dirty pages the hold-up capacitors can push to flash after the host
    rails fail.  The controller's tracer (if any) receives ``PowerLoss``
    and ``RecoveryComplete`` events; the policy comes back empty and the
    device timelines stall for the mount duration.
    """
    mount = profile if profile is not None else FaultProfile()
    policy = controller.policy
    tracer = controller.tracer

    # -- loss: census the dirty data, spend the capacitor budget -------
    dirty = policy.occupancy()
    batch = policy.flush_all()
    assert len(batch.lpns) == dirty, (
        f"flush_all returned {len(batch.lpns)} pages for occupancy {dirty}"
    )
    saved = 0
    if capacitor_pages > 0:
        _xfer_done, saved, err = controller.ftl.write_batch(
            batch.lpns[:capacitor_pages], now
        )
        if err is not None:
            controller.enter_degraded(str(err), now)
        controller.flushed_pages += saved
    lost_lpns = batch.lpns[saved:]
    report = PowerLossReport(
        at_request=at_request,
        at_time_ms=now,
        dirty_pages=dirty,
        saved_pages=saved,
        lost_pages=len(lost_lpns),
        lost_lpns_sample=tuple(lost_lpns[:LOST_LPN_SAMPLE]),
    )
    if tracer.enabled:
        tracer.emit(PowerLoss(now, dirty, saved, report.lost_pages))

    # -- mount: OOB scan rebuilds the mapping, stalling the device -----
    controller.ftl.on_power_loss()
    report.scanned_pages = controller.flash.written_pages()
    report.recovery_ms = (
        mount.mount_base_ms + mount.mount_scan_ms_per_page * report.scanned_pages
    )
    report.remapped_pages = controller.ftl.rebuild_mapping()
    end = now + report.recovery_ms
    controller.resources.stall_until(end)
    if tracer.enabled:
        tracer.emit(
            RecoveryComplete(
                end, report.recovery_ms, report.scanned_pages, report.remapped_pages
            )
        )
    return report
