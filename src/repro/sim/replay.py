"""Trace replay: drive a cache policy + SSD model over a trace.

The central experimental harness.  ``replay_trace`` builds a device
sized for the trace, streams every request through the controller in
arrival order, and returns a fully-populated
:class:`~repro.sim.metrics.ReplayMetrics`.

A cache-only fast path (``replay_cache_only``) runs a policy without the
flash timing model — used by the motivation/occupancy analyses
(Figures 2, 3, 13) and by the δ sweep, where only hit behaviour matters
and the 3-4x speedup buys a denser parameter grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.cache.base import CachePolicy
from repro.cache.registry import create_policy
from repro.cache.tenant import TenantPartitioner
from repro.core.policy import ReqBlockCache
from repro.faults.injector import FaultInjector
from repro.faults.powerloss import inject_power_loss
from repro.faults.profile import FaultProfile, get_profile
from repro.obs.flight import FlightRecorder, active_recorder
from repro.obs.invariants import InvariantChecker
from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL, MetricsRegistry, Sampler
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.tracer import TeeTracer, Tracer
from repro.sim.metrics import MetricsRecorder, ReplayMetrics, fold_eviction_digest
from repro.sim.telemetry import make_emitter
from repro.sim.tenant import TENANCY_MODES, TenantAccountant
from repro.ssd.config import SSDConfig
from repro.ssd.controller import RequestRecord, SSDController, _tuple_new
from repro.ssd.flash import FlashOutOfSpace
from repro.traces.model import PAGE_SIZE_BYTES, Trace
from repro.traces.tenants import TenantMap
from repro.utils.validation import require_positive

__all__ = [
    "ReplayConfig",
    "replay_trace",
    "replay_cache_only",
    "resolve_tracer",
    "written_footprint",
    "sized_ssd_for",
]

#: How often (in requests) the metadata footprint is sampled.
METADATA_SAMPLE_INTERVAL = 256


def written_footprint(trace: Trace) -> int:
    """Distinct LPNs written by the trace — what will occupy flash."""
    seen: set[int] = set()
    for r in trace.writes():
        seen.update(r.pages())
    return len(seen)


def sized_ssd_for(
    trace: Trace,
    base: Optional[SSDConfig] = None,
    over_provisioning: float = 0.5,
) -> SSDConfig:
    """An :class:`SSDConfig` sized so the trace's writes exercise GC.

    Keeps the paper's channel/chip geometry and timing; only the blocks
    per plane shrink to match the (possibly scaled) trace footprint.
    """
    base = base or SSDConfig()
    footprint = max(1, written_footprint(trace))
    return base.sized_for(footprint, over_provisioning)


@dataclass
class ReplayConfig:
    """Everything needed to reproduce one replay run."""

    policy: str = "lru"
    cache_bytes: int = 16 * 1024 * 1024
    policy_kwargs: Dict[str, Any] = field(default_factory=dict)
    ssd: Optional[SSDConfig] = None  # auto-sized for the trace when None
    over_provisioning: float = 0.5
    cache_service_ms_per_page: float = 0.01
    gc_victim_policy: str = "greedy"  # or "cost_benefit"
    #: DFTL mode: DRAM budget for the cached mapping table (None = the
    #: paper's fully-resident page-level table).
    mapping_cache_bytes: Optional[int] = None
    drain_at_end: bool = False
    log_lists: bool = True  # record Fig.-13 occupancy for Req-block
    #: Requests replayed to warm the cache before metrics start
    #: recording (the device/cache state still evolves during warmup).
    warmup_requests: int = 0
    #: Observability sink receiving every cache/FTL/GC event of the
    #: replay (see :mod:`repro.obs`); None keeps tracing disabled.
    tracer: Optional[Tracer] = None
    #: Validate simulator structure after every event (tees an
    #: :class:`~repro.obs.invariants.InvariantChecker` next to
    #: ``tracer``).  Orders of magnitude slower — tests/debugging only.
    check_invariants: bool = False
    #: Policy-structure validation rate for ``check_invariants``
    #: (1 = after every event).
    invariant_check_interval: int = 1
    #: NAND fault injection (see :mod:`repro.faults`): a profile name
    #: from ``FAULT_PROFILES``, a :class:`FaultProfile`, or None/"none"
    #: to keep the device fault-free.
    fault_profile: Optional[Any] = None
    #: Seed for the fault model's ``numpy.random.Generator``.
    fault_seed: int = 0
    #: Cut power right after servicing this request index (None = never);
    #: the replay then continues over the remounted device.
    power_loss_at: Optional[int] = None
    #: Power-loss-protection budget: dirty pages the hold-up capacitors
    #: can still flush after the rails fail.
    capacitor_pages: int = 0
    #: Metrics registry (see :mod:`repro.obs.metrics`): when set, the
    #: replay records per-request instruments, registers the device
    #: collectors and samples a time series into
    #: ``ReplayMetrics.metrics_series``.  None keeps metrics disabled at
    #: the null-registry fast path.
    metrics: Optional[MetricsRegistry] = None
    #: Snapshot cadence in requests, shared with the Figure-13 list-
    #: occupancy log (the paper's "once for every 10,000 requests").
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL
    #: Profile wall-clock time by phase (replay / cache_access / flush /
    #: ftl / gc / read) into ``ReplayMetrics.phase_profile``.
    profile: bool = False
    #: Flight recorder (see :mod:`repro.obs.flight`): a bounded ring of
    #: the last-N events, teed next to ``tracer`` and dumped on abort,
    #: invariant violation, or degraded-mode entry.  None additionally
    #: consults the process-ambient recorder that supervised shard
    #: workers activate; with neither, the replay is unchanged.
    flight: Optional[FlightRecorder] = None
    #: Cache-sharing discipline across tenants (see
    #: :data:`repro.sim.tenant.TENANCY_MODES` and ``docs/tenancy.md``):
    #: ``"shared"`` runs the plain policy — with ``tenants`` unset this
    #: is exactly the legacy single-tenant data path, byte for byte —
    #: while ``"static"`` / ``"proportional"`` wrap it in a
    #: :class:`repro.cache.tenant.TenantPartitioner` (which requires
    #: ``tenants``).
    tenancy: str = "shared"
    #: Zone layout attributing LPNs to tenants (see
    #: :class:`repro.traces.tenants.TenantMap`).  When set, the replay
    #: runs a :class:`repro.sim.tenant.TenantAccountant` and fills
    #: ``ReplayMetrics.tenants``; None keeps accounting off entirely.
    tenants: Optional[TenantMap] = None
    #: Per-tenant activity weights for ``proportional`` partitioning
    #: (ignored otherwise; defaults to equal weights when needed).
    tenant_weights: Optional[Tuple[float, ...]] = None
    #: Hash the eviction sequence (every non-empty flush batch, in
    #: order) into ``ReplayMetrics.eviction_digest`` — the same sha256
    #: encoding the optimisation-equivalence goldens use.  The
    #: serial-vs-parallel test suite relies on this to prove the
    #: parallel engine behaviourally invisible; costs one branch per
    #: request when off.
    digest_evictions: bool = False

    @property
    def cache_pages(self) -> int:
        """Cache capacity in 4 KB pages (validated positive)."""
        pages = self.cache_bytes // PAGE_SIZE_BYTES
        require_positive(pages, "cache capacity in pages")
        return pages


def _build_policy(config: ReplayConfig) -> CachePolicy:
    if config.tenancy not in TENANCY_MODES:
        raise ValueError(
            f"unknown tenancy {config.tenancy!r}; "
            f"choose one of {', '.join(TENANCY_MODES)}"
        )
    if config.tenancy != "shared":
        if config.tenants is None:
            raise ValueError(
                f"tenancy={config.tenancy!r} needs a TenantMap "
                "(ReplayConfig.tenants)"
            )
        weights = config.tenant_weights
        if config.tenancy == "proportional" and weights is None:
            weights = (1.0,) * config.tenants.n_tenants
        return TenantPartitioner.build(
            config.policy,
            config.cache_pages,
            config.tenants,
            mode=config.tenancy,
            weights=weights,
            **config.policy_kwargs,
        )
    return create_policy(config.policy, config.cache_pages, **config.policy_kwargs)


def _resolve_accountant(config: ReplayConfig) -> Optional[TenantAccountant]:
    """Per-tenant accountant when a tenant map is configured, else None
    (the legacy path: one untaken branch per request)."""
    if config.tenants is None:
        return None
    accountant = TenantAccountant(config.tenants)
    accountant.register_metrics(config.metrics)
    return accountant


def _resolve_recorder(
    config: ReplayConfig,
) -> "Tuple[Optional[MetricsRecorder], Optional[Sampler]]":
    """Per-request recorder + snapshot sampler for the configured
    registry, or ``(None, None)`` when metrics are off."""
    registry = config.metrics
    if registry is None or not registry.enabled:
        return None, None
    return MetricsRecorder(registry), Sampler(registry, config.sample_interval)


def resolve_tracer(
    config: ReplayConfig,
) -> Tuple[Optional[Tracer], Optional[InvariantChecker]]:
    """The effective tracer for a replay: the configured one, an
    invariant checker, both (teed), or None.  The caller attaches the
    returned checker to the policy/controller once they exist."""
    tracer = config.tracer
    checker: Optional[InvariantChecker] = None
    if config.check_invariants:
        checker = InvariantChecker(check_interval=config.invariant_check_interval)
        tracer = checker if tracer is None else TeeTracer(tracer, checker)
    recorder = _resolve_flight(config)
    if recorder is not None:
        tracer = recorder if tracer is None else TeeTracer(tracer, recorder)
    return tracer, checker


def _resolve_flight(config: ReplayConfig) -> Optional[FlightRecorder]:
    """The effective flight recorder: the configured one, else the
    process-ambient one a supervised worker activated, else None."""
    return config.flight if config.flight is not None else active_recorder()


def _fold_utilisation(
    metrics: ReplayMetrics, controller: SSDController, last_submit: float
) -> None:
    """Set the plane and bus utilisation fields of ``metrics`` over the
    replay horizon: the later of the last request's submit time and the
    moment the last plane goes idle."""
    horizon = max(last_submit, max(controller.resources.plane_free, default=0.0))
    plane_u = controller.resources.utilisation(horizon)
    bus_u = controller.resources.bus_utilisation(horizon)
    if plane_u:
        metrics.mean_plane_utilisation = sum(plane_u) / len(plane_u)
        metrics.max_plane_utilisation = max(plane_u)
    if bus_u:
        metrics.mean_bus_utilisation = sum(bus_u) / len(bus_u)


def replay_trace(trace: Trace, config: ReplayConfig) -> ReplayMetrics:
    """Replay ``trace`` on the full device model; returns the metrics.

    Device-fatal errors (:class:`FlashOutOfSpace` escaping the
    controller's degraded-mode net) no longer lose the run: the replay
    stops, the metrics collected so far are finalised, and
    ``metrics.aborted_reason`` records why (the CLI maps this to a
    distinct exit code).
    """
    policy = _build_policy(config)
    tracer, checker = resolve_tracer(config)
    ssd_config = config.ssd or sized_ssd_for(
        trace, over_provisioning=config.over_provisioning
    )
    profile: Optional[FaultProfile] = get_profile(config.fault_profile)
    faults = (
        FaultInjector(profile, seed=config.fault_seed)
        if profile is not None
        else None
    )
    profiler = PhaseProfiler() if config.profile else NULL_PROFILER
    controller = SSDController(
        ssd_config,
        policy,
        cache_service_ms_per_page=config.cache_service_ms_per_page,
        gc_victim_policy=config.gc_victim_policy,
        mapping_cache_bytes=config.mapping_cache_bytes,
        tracer=tracer,
        faults=faults,
        metrics=config.metrics,
        profiler=profiler if profiler.enabled else None,
    )
    if checker is not None:
        checker.attach(policy=policy, controller=controller)
    metrics = ReplayMetrics(
        trace_name=trace.name,
        policy_name=config.policy,
        cache_pages=config.cache_pages,
    )
    recorder, sampler = _resolve_recorder(config)
    accountant = _resolve_accountant(config)
    digest = hashlib.sha256() if config.digest_evictions else None
    track_lists = config.log_lists and isinstance(policy, ReqBlockCache)
    base_flush = base_migrated = base_erases = base_programs = 0
    power_report = None
    last_index, last_time = -1, 0.0

    # Hoist per-iteration lookups out of the replay loop: the loop body
    # runs once per request, and the config fields and bound methods are
    # loop-invariant.
    warmup = config.warmup_requests
    power_loss_at = config.power_loss_at
    sample_interval = config.sample_interval
    submit = controller.submit
    record_metrics = metrics.record
    metadata_add = metrics.metadata_bytes.add
    policy_metadata_bytes = policy.metadata_bytes
    recorder_flight = _resolve_flight(config)
    telemetry = make_emitter(len(trace))
    gc_stats = controller.gc.stats
    pages_ratio = metrics.pages

    if profiler.enabled:
        profiler.start("replay")
    try:
        for i, request in enumerate(trace):
            if warmup and i == warmup:
                # Exclude warmup traffic from the flash counters.
                base_flush = controller.flushed_pages
                base_migrated = controller.gc.stats.pages_migrated
                base_erases = controller.gc.stats.blocks_erased
                base_programs = controller.total_flash_writes
            last_index = i
            last_time = request.time
            try:
                record = submit(request)
                if power_loss_at is not None and i == power_loss_at:
                    power_report = inject_power_loss(
                        controller,
                        request.time,
                        at_request=i,
                        capacitor_pages=config.capacitor_pages,
                        profile=profile,
                    )
            except FlashOutOfSpace as exc:
                metrics.aborted_reason = str(exc)
                metrics.aborted_at_request = i
                if recorder_flight is not None:
                    recorder_flight.record_dump(
                        f"replay_aborted: {exc}", metrics
                    )
                break
            if i < warmup:
                continue
            record_metrics(request, record)
            if accountant is not None:
                accountant.record(request, record)
            if digest is not None and record.outcome.flushes:
                fold_eviction_digest(digest, record.outcome.flushes)
            if recorder is not None:
                recorder.record(request, record)
                sampler.maybe_sample(i, request.time)
            if not i % METADATA_SAMPLE_INTERVAL:
                metadata_add(policy_metadata_bytes())
                if telemetry is not None:
                    telemetry.maybe_emit(
                        i, pages_ratio.ratio, gc_stats.blocks_erased
                    )
            if track_lists and not i % sample_interval and i > 0:
                metrics.list_log.append((i, policy.list_page_counts()))

        if config.drain_at_end and len(trace) and not metrics.aborted:
            controller.drain(trace[len(trace) - 1].time)
    except BaseException as exc:
        # A dying replay (invariant violation, injected chaos, ^C) takes
        # its last-N events with it: snapshot them at the failure site,
        # where the partial metrics are still live, and let the caller
        # (CLI or supervised worker) decide where the dump goes.
        if recorder_flight is not None:
            recorder_flight.record_dump(
                f"exception: {type(exc).__name__}: {exc}", metrics
            )
        raise
    finally:
        if profiler.enabled:
            profiler.stop()

    if sampler is not None and last_index >= 0:
        sampler.finalize(last_index, last_time)
        metrics.metrics_series = sampler.series
    if profiler.enabled:
        metrics.phase_profile = profiler.as_dict()
    if digest is not None:
        metrics.eviction_digest = digest.hexdigest()
    if accountant is not None:
        metrics.tenants = accountant.stats

    metrics.host_flush_pages = controller.flushed_pages - base_flush
    metrics.gc_migrated_pages = controller.gc.stats.pages_migrated - base_migrated
    metrics.gc_erases = controller.gc.stats.blocks_erased - base_erases
    metrics.flash_total_writes = controller.total_flash_writes - base_programs
    if len(trace):
        _fold_utilisation(metrics, controller, trace[len(trace) - 1].time)
    if (
        faults is not None
        or power_report is not None
        or controller.degraded.active
        or metrics.aborted
    ):
        durability = controller.durability_report()
        durability.power_loss = power_report
        metrics.durability = durability
    if (
        recorder_flight is not None
        and recorder_flight.degraded_reason is not None
    ):
        # DegradedMode entry is dump-worthy even when the replay ran to
        # completion (the device limped home read-only); first recorded
        # dump wins, so an earlier abort snapshot is never overwritten.
        recorder_flight.record_dump(
            f"degraded_mode_entered: {recorder_flight.degraded_reason}",
            metrics,
        )
    if checker is not None:
        checker.close()
    return metrics


def replay_cache_only(trace: Trace, config: ReplayConfig) -> ReplayMetrics:
    """Replay through the cache policy alone (no flash timing/GC).

    Response-time fields stay zero (every request is recorded with
    ``response_ms=0.0``); hit ratios, eviction histogram, metadata
    samples and list logs are identical to a full replay because the
    policy never observes the flash backend —
    ``tests/sim/test_replay.py::TestFastPathEquivalence`` pins this.
    """
    policy = _build_policy(config)
    tracer, checker = resolve_tracer(config)
    if tracer is not None:
        policy.set_tracer(tracer)
    if checker is not None:
        checker.attach(policy=policy)
    if config.metrics is not None:
        policy.set_metrics(config.metrics)
    profiler = PhaseProfiler() if config.profile else NULL_PROFILER
    metrics = ReplayMetrics(
        trace_name=trace.name,
        policy_name=config.policy,
        cache_pages=config.cache_pages,
    )
    recorder, sampler = _resolve_recorder(config)
    accountant = _resolve_accountant(config)
    digest = hashlib.sha256() if config.digest_evictions else None
    track_lists = config.log_lists and isinstance(policy, ReqBlockCache)
    flushed = 0
    last_index, last_time = -1, 0.0

    # Loop-invariant hoisting, as in ``replay_trace``.
    warmup = config.warmup_requests
    sample_interval = config.sample_interval
    access = policy.access
    record_metrics = metrics.record
    metadata_add = metrics.metadata_bytes.add
    policy_metadata_bytes = policy.metadata_bytes
    profiled = profiler.enabled
    recorder_flight = _resolve_flight(config)
    telemetry = make_emitter(len(trace), phase="cache_only")
    pages_ratio = metrics.pages

    if profiled:
        profiler.start("replay")
    try:
        for i, request in enumerate(trace):
            last_index = i
            last_time = request.time
            if not profiled:
                outcome = access(request)
            else:
                profiler.start("cache_access")
                try:
                    outcome = access(request)
                finally:
                    profiler.stop()
            if i < warmup:
                continue
            record = _tuple_new(RequestRecord, (0.0, outcome))
            record_metrics(request, record)
            if accountant is not None:
                accountant.record(request, record)
            flushes = outcome.flushes
            if flushes:
                if digest is not None:
                    fold_eviction_digest(digest, flushes)
                for batch in flushes:
                    flushed += len(batch.lpns)
            if recorder is not None:
                recorder.record(request, record)
                sampler.maybe_sample(i, request.time)
            if not i % METADATA_SAMPLE_INTERVAL:
                metadata_add(policy_metadata_bytes())
                if telemetry is not None:
                    # Cache-only replays have no GC, hence erases=0.
                    telemetry.maybe_emit(i, pages_ratio.ratio, 0)
            if track_lists and not i % sample_interval and i > 0:
                metrics.list_log.append((i, policy.list_page_counts()))
    except BaseException as exc:
        if recorder_flight is not None:
            recorder_flight.record_dump(
                f"exception: {type(exc).__name__}: {exc}", metrics
            )
        raise
    finally:
        if profiler.enabled:
            profiler.stop()

    if sampler is not None and last_index >= 0:
        sampler.finalize(last_index, last_time)
        metrics.metrics_series = sampler.series
    if profiler.enabled:
        metrics.phase_profile = profiler.as_dict()
    if digest is not None:
        metrics.eviction_digest = digest.hexdigest()
    if accountant is not None:
        metrics.tenants = accountant.stats
    metrics.host_flush_pages = flushed
    metrics.flash_total_writes = flushed
    if checker is not None:
        checker.close()
    return metrics
