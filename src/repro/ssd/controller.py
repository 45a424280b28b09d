"""SSD controller: couples the DRAM cache policy to the flash backend.

Models the request path of Figure 1: the host delivers a request, the
cache absorbs what it can, and the FTL services the rest on the flash
array.  Service semantics (see DESIGN.md §5):

* a **write** completes once its pages are in DRAM; when the cache had
  to evict to make room, the write additionally waits until the victim
  batch's data has *left DRAM over the channel buses* (``xfer_end``) —
  the evicted slots are reusable as soon as the data sits in the plane
  registers, while the 2 ms cell programs continue in the background,
  occupying planes and delaying subsequent reads/GC.  This is how
  eviction efficiency (batch size, channel striping) shapes response
  time without over-charging every write the full program latency;
* a **read** completes when its last page is available — immediately
  for cache hits, after the scheduled flash read otherwise.  A
  request's read misses reach the FTL as one ``read_batch`` call, all
  issued at the arrival time;
* a **write** whose outcome carries read misses (BPLRU page padding)
  reads them first, as one ``read_batch`` at its arrival, and issues
  its flushes when the reads end: a padded block cannot be programmed
  before its missing pages are in;
* flush batches reach the FTL as ``write_batch`` calls (one per
  request when none of its batches is pinned) and stripe across planes
  via the FTL's dynamic allocator unless the batch is pinned
  (``FlushBatch.pin_key``, BPLRU), in which case every page programs
  into one plane and the batch serialises on that plane's chip and
  channel;
* garbage collection runs inside ``PageFTL.write_batch``, the one host
  write loop, when a program leaves its plane below the free-space
  threshold; the victim's valid pages move through
  ``PageFTL.migrate_block`` (the loop the bad-block rescue shares),
  occupying that plane's timeline.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple

from repro.cache.base import AccessOutcome, CachePolicy, FlushBatch
from repro.faults.degraded import DegradedMode
from repro.faults.injector import NULL_FAULTS
from repro.faults.report import DurabilityReport
from repro.obs.events import DegradedModeEntered
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.ssd.config import SSDConfig
from repro.ssd.flash import FlashArray
from repro.ssd.ftl import PageFTL
from repro.ssd.gc import GarbageCollector
from repro.ssd.geometry import Geometry
from repro.ssd.resources import ResourceTimelines
from repro.traces.model import IORequest, OpType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector

__all__ = ["RequestRecord", "SSDController"]


class _BacklogFeedback:
    """DeviceFeedback adapter: flush backlog from the plane timelines.

    Assumes a flush of ``lpn`` lands on plane ``lpn % n_planes`` (ECR's
    known-target premise; our dynamic allocator may place it elsewhere,
    making this an estimate of *relative* channel load, which is what
    the heuristic needs).
    """

    __slots__ = ("_controller",)

    def __init__(self, controller: "SSDController") -> None:
        self._controller = controller

    def flush_backlog_ms(self, lpn: int) -> float:
        """Queueing delay a flush of ``lpn`` would face right now."""
        c = self._controller
        plane = lpn % c.config.n_planes
        return max(0.0, c.resources.plane_free[plane] - c._now)


class RequestRecord(NamedTuple):
    """Timing and cache outcome of one serviced request.

    A ``NamedTuple`` rather than a frozen dataclass: one is built per
    submitted request.  The per-request sites (``SSDController.submit``
    and the replay loops) build it as
    ``_tuple_new(RequestRecord, (response_ms, outcome))``, which skips
    the keyword-parsing ``__new__`` that ``NamedTuple`` generates (more
    than twice the cost); everything else calls the constructor.
    """

    response_ms: float
    outcome: AccessOutcome


#: ``tuple.__new__``: builds a :class:`RequestRecord` positionally on
#: the per-request paths.
_tuple_new = tuple.__new__


class SSDController:
    """The simulated device: DRAM cache + page-level FTL + NAND timing."""

    def __init__(
        self,
        config: SSDConfig,
        policy: CachePolicy,
        cache_service_ms_per_page: float = 0.01,
        wear_aware_gc: bool = False,
        gc_victim_policy: str = "greedy",
        mapping_cache_bytes: "int | None" = None,
        tracer: "Tracer | None" = None,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
        profiler: "PhaseProfiler | None" = None,
    ) -> None:
        """
        Parameters
        ----------
        config:
            Device geometry and timing (Table 1 defaults).
        policy:
            The DRAM cache replacement scheme to drive.
        cache_service_ms_per_page:
            Host-interface + DRAM time to move one page into or out of
            the data cache; the fast path every policy shares.
        mapping_cache_bytes:
            When set, the FTL caches its mapping table on demand
            (DFTL-style) with this much DRAM instead of holding it all
            resident — translation misses then delay host operations.
        tracer:
            Observability sink (see :mod:`repro.obs`).  Threaded through
            the cache policy, the FTL and the GC so one tracer sees the
            whole event stream of a replay.  ``None`` keeps tracing
            disabled (and leaves any tracer already attached to the
            policy untouched).
        faults:
            Fault injector (see :mod:`repro.faults`); attached to this
            device's flash array and consulted by the FTL and GC on
            every program/read/erase.  ``None`` keeps injection disabled
            at one branch per operation.
        metrics:
            Metrics registry (see :mod:`repro.obs.metrics`).  The
            controller registers *collectors* that mirror the FTL, GC,
            flash, fault and CMT counters into gauges right before each
            snapshot, so the hot path pays nothing.  ``None`` keeps
            metrics disabled.
        profiler:
            Phase profiler (see :mod:`repro.obs.profile`): the
            controller opens ``cache_access`` / ``flush`` / ``read``
            and one ``ftl`` phase per FTL call, and the GC its ``gc``
            phase, so replay wall-clock time decomposes into them.
            ``None`` keeps profiling disabled.
        """
        self.config = config
        self.policy = policy
        self.cache_service_ms = cache_service_ms_per_page
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            policy.set_tracer(tracer)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.geometry = Geometry(config)
        self.flash = FlashArray(config, self.geometry)
        self.resources = ResourceTimelines(config, self.geometry)
        self.faults = faults if faults is not None else NULL_FAULTS
        if self.faults.enabled:
            # Bind before any allocation so factory spares come off the
            # pristine free lists.
            self.faults.attach(self.flash, tracer=self.tracer)
        self.degraded = DegradedMode()
        self.gc = GarbageCollector(
            config,
            self.geometry,
            self.flash,
            self.resources,
            wear_aware=wear_aware_gc,
            victim_policy=gc_victim_policy,
            tracer=self.tracer,
            faults=faults,
            profiler=self.profiler,
        )
        if mapping_cache_bytes is None:
            self.ftl: PageFTL = PageFTL(
                config,
                self.geometry,
                self.flash,
                self.resources,
                self.gc,
                tracer=self.tracer,
                faults=faults,
            )
        else:
            from repro.ssd.dftl import CachedMappingFTL

            self.ftl = CachedMappingFTL(
                config,
                self.geometry,
                self.flash,
                self.resources,
                self.gc,
                mapping_cache_bytes=mapping_cache_bytes,
                tracer=self.tracer,
                faults=faults,
            )
        # Cost-aware policies (ECR) may ask the device for flush
        # backlog estimates; inject the narrow feedback adapter.
        if hasattr(policy, "set_device_feedback"):
            policy.set_device_feedback(_BacklogFeedback(self))
        #: Host pages flushed from the cache to flash (Figure 11's count;
        #: GC migrations are tracked separately in ``gc.stats``).
        self.flushed_pages = 0
        if self.metrics.enabled:
            policy.set_metrics(self.metrics)
            self._register_metrics_collectors()

    # ------------------------------------------------------------------
    def _register_metrics_collectors(self) -> None:
        """Mirror existing stats objects into gauges at snapshot time.

        Everything here is cumulative state the simulator already keeps
        (FTLStats, GCStats, FlashArray counters, FaultInjector tallies,
        CMTStats), so the instrumented hot path is unchanged — the
        collector reads it lazily when the sampler asks.
        """
        m = self.metrics
        mapped = m.gauge("ssd.ftl.mapped_pages")
        host_programs = m.gauge("ssd.ftl.host_programs_total")
        host_reads = m.gauge("ssd.ftl.host_reads_total")
        unmapped_reads = m.gauge("ssd.ftl.unmapped_reads_total")
        gc_invocations = m.gauge("ssd.gc.invocations_total")
        gc_erased = m.gauge("ssd.gc.blocks_erased_total")
        gc_migrated = m.gauge("ssd.gc.pages_migrated_total")
        gc_busy = m.gauge("ssd.gc.busy_ms_total")
        programs = m.gauge("ssd.flash.programs_total")
        free_blocks = m.gauge("ssd.flash.free_blocks")
        retired_blocks = m.gauge("ssd.flash.retired_blocks")
        flushed = m.gauge("ssd.host.flushed_pages_total")
        backlog = m.gauge("ssd.plane.backlog_ms_max")
        n_planes = self.config.n_planes

        def collect(now: float) -> None:
            ftl = self.ftl
            flash = self.flash
            mapped.set(ftl.mapped_count())
            host_programs.set(ftl.stats.host_programs)
            host_reads.set(ftl.stats.host_reads)
            unmapped_reads.set(ftl.stats.unmapped_reads)
            gc_invocations.set(self.gc.stats.invocations)
            gc_erased.set(self.gc.stats.blocks_erased)
            gc_migrated.set(self.gc.stats.pages_migrated)
            gc_busy.set(self.gc.stats.busy_ms)
            programs.set(flash.total_programs)
            free_blocks.set(
                sum(flash.free_block_count(p) for p in range(n_planes))
            )
            retired_blocks.set(len(flash.retired))
            flushed.set(self.flushed_pages)
            backlog.set(max(0.0, max(self.resources.plane_free) - now))

        m.register_collector(collect)

        if self.faults.enabled:
            f = self.faults
            program_fails = m.gauge("faults.program_fails_total")
            erase_fails = m.gauge("faults.erase_fails_total")
            retry_reads = m.gauge("faults.reads_with_retry_total")
            retries = m.gauge("faults.read_retries_total")
            unrecoverable = m.gauge("faults.unrecoverable_reads_total")
            rescued = m.gauge("faults.rescued_pages_total")
            degraded = m.gauge("faults.degraded_mode")

            def collect_faults(_now: float) -> None:
                program_fails.set(f.program_fails)
                erase_fails.set(f.erase_fails)
                retry_reads.set(f.reads_with_retry)
                retries.set(f.read_retries)
                unrecoverable.set(f.unrecoverable_reads)
                rescued.set(f.rescued_pages)
                degraded.set(1 if self.degraded.active else 0)

            m.register_collector(collect_faults)

        if hasattr(self.ftl, "cmt_stats"):
            cmt_hits = m.gauge("ssd.cmt.hits_total")
            cmt_misses = m.gauge("ssd.cmt.misses_total")
            cmt_writebacks = m.gauge("ssd.cmt.writebacks_total")

            def collect_cmt(_now: float) -> None:
                stats = self.ftl.cmt_stats
                cmt_hits.set(stats.hits)
                cmt_misses.set(stats.misses)
                cmt_writebacks.set(stats.writebacks)

            m.register_collector(collect_cmt)

    # ------------------------------------------------------------------
    def submit(self, request: IORequest) -> RequestRecord:
        """Service one request; returns its response time and outcome.

        Requests must be submitted in non-decreasing arrival order (the
        resource timelines assume open-loop, time-sorted replay).
        """
        now = request.time
        self._now = now
        is_write = request.op is OpType.WRITE
        if self.degraded.active:
            if is_write:
                # Read-only device: the write is rejected before it
                # touches the cache (no insertion, no eviction).
                self.degraded.writes_rejected_requests += 1
                self.degraded.writes_rejected_pages += request.npages
                return _tuple_new(RequestRecord, (0.0, AccessOutcome()))
            self.degraded.reads_served += 1
        prof = self.profiler
        if not prof.enabled:
            outcome = self.policy.access(request)
        else:
            prof.start("cache_access")
            try:
                outcome = self.policy.access(request)
            finally:
                prof.stop()

        flushes = outcome.flushes
        read_misses = outcome.read_miss_lpns
        space_ready = now
        if is_write and read_misses:
            # BPLRU page padding: the victim block's missing pages are
            # read first, and the padded block is programmed once they
            # are in.
            space_ready = (
                self.ftl.read_batch(read_misses, now)
                if not prof.enabled
                else self._read_profiled(read_misses, now)
            )
        if flushes:
            flush_at = space_ready
            # ``_flush`` is ``_flush_impl`` under the ``flush`` phase.
            flush = self._flush_impl if not prof.enabled else self._flush
            combined: "list | None" = None
            if len(flushes) > 1:
                # All-unpinned eviction burst: concatenating preserves
                # the page program order, the arrival time and the
                # accounting of the per-batch loop exactly (see
                # _flush_impl), so collapse it into one FTL call.
                combined = []
                for b in flushes:
                    if b.pin_key is not None:
                        combined = None
                        break
                    combined.extend(b.lpns)
            if combined is not None:
                space_ready = flush(FlushBatch(combined), flush_at)
            else:
                for batch in flushes:
                    t = flush(batch, flush_at)
                    if t > space_ready:
                        space_ready = t

        dram_time = self.cache_service_ms * request.npages
        if is_write:
            # A write that had to wait for cache space is gated by the
            # victim batch's transfers out of DRAM (``space_ready`` is
            # ``now`` when nothing was evicted).
            completion = space_ready + dram_time
        else:
            completion = now + dram_time if outcome.page_hits else now
            if read_misses:
                end = (
                    self.ftl.read_batch(read_misses, now)
                    if not prof.enabled
                    else self._read_profiled(read_misses, now)
                )
                if end > completion:
                    completion = end
        return _tuple_new(RequestRecord, (completion - now, outcome))

    def _read_profiled(self, lpns: List[int], now: float) -> float:
        """``ftl.read_batch(lpns, now)`` under the ``"read"`` profile
        phase, the FTL call nested under ``"ftl"``."""
        prof = self.profiler
        prof.start("read")
        prof.start("ftl")
        try:
            return self.ftl.read_batch(lpns, now)
        finally:
            prof.stop()
            prof.stop()

    # ------------------------------------------------------------------
    def _flush(self, batch: FlushBatch, now: float) -> float:
        """Program a flush batch; returns when its data has left DRAM.

        The cell programs keep their planes busy beyond the returned
        instant; only the bus transfers gate cache-space reuse.  The
        work accumulates under the ``"flush"`` profile phase; the flash
        programs inside nest under ``"ftl"`` (and any triggered GC under
        ``"gc"``), so flush self-time is the batch bookkeeping only.
        """
        prof = self.profiler
        if not prof.enabled:
            return self._flush_impl(batch, now)
        prof.start("flush")
        try:
            return self._flush_impl(batch, now)
        finally:
            prof.stop()

    def _flush_impl(self, batch: FlushBatch, now: float) -> float:
        lpns = batch.lpns
        if not lpns:
            return now
        if self.degraded.active:
            # The policy already evicted these pages from DRAM; a
            # degraded device cannot program them — data dropped.
            self.degraded.flush_pages_dropped += len(lpns)
            return now
        if batch.pin_key is None:
            planes = None
        else:
            # Pinned batch: all pages confined to one channel (rotating
            # over that channel's chips/planes), so the flush cannot use
            # cross-channel parallelism.
            channel = self.ftl.pinned_channel_for(batch.pin_key)
            planes = self.ftl.planes_of_channel(channel)
        # ``self.ftl`` is looked up per call: the layered benchmark
        # swaps in a timing proxy after construction.
        prof = self.profiler
        if not prof.enabled:
            xfer_done, done, err = self.ftl.write_batch(lpns, now, planes)
        else:
            prof.start("ftl")
            try:
                xfer_done, done, err = self.ftl.write_batch(lpns, now, planes)
            finally:
                prof.stop()
        if err is not None:
            # GC could not reclaim space: latch degraded mode and drop
            # the rest of the batch.  A page programmed before its
            # post-write GC raised is not in ``done``; counting it
            # dropped is the conservative accounting.
            self.enter_degraded(str(err), now)
            self.degraded.flush_pages_dropped += len(lpns) - done
        self.flushed_pages += done
        return xfer_done

    def drain(self, now: float) -> float:
        """Flush everything left in the cache (shutdown); returns finish time."""
        batch = self.policy.flush_all()
        return self._flush(batch, now)

    # ------------------------------------------------------------------
    # Graceful degradation (see repro.faults.degraded)
    # ------------------------------------------------------------------
    def enter_degraded(self, reason: str, now: float, plane: int = -1) -> None:
        """Latch read-only mode; emits the event on the first entry only."""
        if self.degraded.enter(reason, now, plane):
            # Counter (not just the degraded_mode gauge): a monotonic
            # series signal the anomaly detectors can difference.
            if self.metrics.enabled:
                self.metrics.counter("faults.degraded_entries_total").inc()
            if self.tracer.enabled:
                self.tracer.emit(DegradedModeEntered(now, plane, reason))

    def durability_report(self) -> DurabilityReport:
        """Fault + degradation accounting for this replay (power-loss
        details are attached by the replay loop, which owns that event)."""
        report = DurabilityReport()
        if self.faults.enabled:
            self.faults.fill_report(report)
        d = self.degraded
        report.degraded = d.active
        report.degraded_reason = d.reason
        report.degraded_at_ms = d.entered_at_ms
        report.writes_rejected_requests = d.writes_rejected_requests
        report.writes_rejected_pages = d.writes_rejected_pages
        report.flush_pages_dropped = d.flush_pages_dropped
        if d.active:
            report.extra["reads_served_degraded"] = float(d.reads_served)
        return report

    # ------------------------------------------------------------------
    @property
    def total_flash_writes(self) -> int:
        """All programs issued: host flushes + GC migrations."""
        return self.flash.total_programs

    def validate(self) -> None:
        """Cross-component invariants (tests)."""
        self.policy.validate()
        self.flash.validate()
        self.ftl.validate()
        # A cached LPN may also be mapped (stale flash copy is allowed);
        # but every flushed page must be mapped.
        # (No direct check possible without replay history; covered by
        # integration tests.)
