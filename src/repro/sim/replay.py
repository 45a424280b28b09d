"""Trace replay: drive a cache policy + SSD model over a trace.

The central experimental harness.  Three public drivers share one
private replay loop, ``_replay``: it builds the policy and every
configured observer (tracer, invariant checker, flight recorder, metrics
sampler, tenant accountant, eviction digest, list log, live progress
frames, profiler), folds every request's :class:`~repro.ssd.controller.RequestRecord`
into a :class:`~repro.sim.metrics.ReplayMetrics` (``FOLD_CHUNK`` requests
at a time), and finalises it.  The drivers differ only in how one
request is serviced:

* ``replay_trace`` — open loop, the paper's methodology: the request
  goes to an :class:`~repro.ssd.controller.SSDController`, sized for the
  trace, at its trace timestamp.
* ``replay_closed_loop`` — at most ``queue_depth`` requests in flight:
  request *i* is submitted at
  ``max(arrival_i, completion_{i - queue_depth}, submit_{i-1})`` and its
  response time counts from its trace arrival, so host-side queueing
  counts toward latency.  ``queue_depth=None`` reproduces the open loop.
* ``replay_cache_only`` — the policy alone, recorded with a zero
  response and no controller or flash timing model.  The
  motivation/occupancy analyses (Figures 2, 3, 13) and the δ sweep use
  it: only hit behaviour matters there, and the 3-4x speedup buys a
  denser parameter grid.

Every :class:`ReplayConfig` option therefore means the same in each
driver; the device options (SSD geometry, faults, power loss, drain) do
nothing in a cache-only replay, which has no device.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
from repro.sim.progress import make_emitter
from repro.sim.tenant import TENANCY_MODES, TenantAccountant
from repro.ssd.config import SSDConfig
from repro.ssd.controller import RequestRecord, SSDController, _tuple_new
from repro.ssd.flash import FlashOutOfSpace
from repro.traces.model import PAGE_SIZE_BYTES, IORequest, Trace
from repro.traces.tenants import TenantMap
from repro.utils.validation import require_positive

__all__ = [
    "ReplayConfig",
    "replay_trace",
    "replay_closed_loop",
    "replay_cache_only",
    "resolve_tracer",
    "written_footprint",
    "sized_ssd_for",
]

#: How often (in requests) the metadata footprint is sampled.
METADATA_SAMPLE_INTERVAL = 256

#: How often (in requests) the replay folds its pending records into
#: the metrics and the eviction digest.  It divides
#: ``METADATA_SAMPLE_INTERVAL``, so the live progress frame taken there
#: sees every request before it.  A chunk's outcomes stay alive until it is folded,
#: and 64 keeps them under the cyclic collector's generation-0
#: threshold (700 net container allocations), which 256 passed.
FOLD_CHUNK = 64


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
    #: parallel engine behaviourally invisible.  When on, the replay
    #: hashes each ``FOLD_CHUNK``-request chunk in one ``update``; when
    #: off it costs one branch per chunk.
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


class _QueueDepthShaper:
    """Closed-loop submission: at most ``queue_depth`` requests in flight.

    Request *i* reaches the controller at
    ``max(arrival_i, completion_{i - queue_depth}, submit_{i-1})``, so
    submissions stay time-ordered (the resource timelines require it),
    and its response time is completion minus *trace arrival*: host-side
    queueing counts toward latency, the usual closed-loop convention.
    ``queue_depth=None`` never waits for a completion.
    """

    __slots__ = ("_submit", "_depth", "_completions", "last_submit")

    def __init__(
        self, submit: Callable[[IORequest], RequestRecord], queue_depth: Optional[int]
    ) -> None:
        self._submit = submit
        self._depth = queue_depth
        #: Completion times of the requests in flight, oldest first.
        self._completions: Deque[float] = deque()
        #: When the latest request was submitted.
        self.last_submit = 0.0

    def submit(self, request: IORequest) -> RequestRecord:
        completions = self._completions
        depth = self._depth
        submit = max(request.time, self.last_submit)
        if depth is not None and len(completions) >= depth:
            # The oldest outstanding request must finish before the next
            # submission slot opens.
            submit = max(submit, completions.popleft())
        self.last_submit = submit
        shifted = (
            request
            if submit == request.time
            else IORequest(submit, request.op, request.lpn, request.npages)
        )
        record = self._submit(shifted)
        completion = submit + record.response_ms
        if depth is not None:
            completions.append(completion)
        return _tuple_new(RequestRecord, (completion - request.time, record.outcome))


def _cache_only_step(
    policy: CachePolicy, profiler: PhaseProfiler
) -> Callable[[IORequest], RequestRecord]:
    """The cache-only request step: the policy's ``access``, recorded
    with a zero response (under the ``cache_access`` phase when
    profiling)."""
    access = policy.access
    profiled = profiler.enabled

    def step(request: IORequest) -> RequestRecord:
        if not profiled:
            return _tuple_new(RequestRecord, (0.0, access(request)))
        profiler.start("cache_access")
        try:
            outcome = access(request)
        finally:
            profiler.stop()
        return _tuple_new(RequestRecord, (0.0, outcome))

    return step


def _flash_counters(controller: SSDController) -> Tuple[int, int, int, int]:
    """Host flush pages, GC migrations, GC erases and flash programs."""
    gc_stats = controller.gc.stats
    return (
        controller.flushed_pages,
        gc_stats.pages_migrated,
        gc_stats.blocks_erased,
        controller.total_flash_writes,
    )


def _replay(
    trace: Trace,
    config: ReplayConfig,
    device: bool = True,
    queue_depth: Optional[int] = None,
    closed_loop: bool = False,
) -> ReplayMetrics:
    """The one replay driver behind the three public ones.

    Builds the policy and every configured observer, then replays the
    trace.  Each recorded ``(request, record)`` pair waits in a pending
    chunk, which is folded into the metrics (and the eviction digest)
    every ``FOLD_CHUNK`` requests, after the loop, and before a flight
    dump.  With ``device`` the requests go
    through an :class:`SSDController`, at their arrival times or, with
    ``closed_loop``, through a :class:`_QueueDepthShaper`; without it the
    policy alone serves them and no controller is built.
    """
    policy = _build_policy(config)
    tracer, checker = resolve_tracer(config)
    profiler = PhaseProfiler() if config.profile else NULL_PROFILER
    controller: Optional[SSDController] = None
    faults: Optional[FaultInjector] = None
    profile: Optional[FaultProfile] = None
    shaper: Optional[_QueueDepthShaper] = None
    if device:
        ssd_config = config.ssd or sized_ssd_for(
            trace, over_provisioning=config.over_provisioning
        )
        profile = get_profile(config.fault_profile)
        if profile is not None:
            faults = FaultInjector(profile, seed=config.fault_seed)
        # Looked up in this module at call time: tests swap in a
        # controller factory with other constructor arguments.
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
        if closed_loop:
            shaper = _QueueDepthShaper(controller.submit, queue_depth)
            step = shaper.submit
        else:
            step = controller.submit
    else:
        if tracer is not None:
            policy.set_tracer(tracer)
        if config.metrics is not None:
            policy.set_metrics(config.metrics)
        step = _cache_only_step(policy, profiler)
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
    # Recorded (request, record) pairs not yet folded.
    pending: List[Tuple[IORequest, RequestRecord]] = []
    pending_append = pending.append

    def fold_pending() -> None:
        # Detach the chunk first, so a fold that dies part-way is never
        # folded again by the flight dump's fold.
        chunk = pending[:]
        pending.clear()
        metrics.fold(chunk)
        if digest is not None:
            fold_eviction_digest(digest, chunk)

    track_lists = config.log_lists and isinstance(policy, ReqBlockCache)
    flight = _resolve_flight(config)
    telemetry = make_emitter(len(trace), phase="replay" if device else "cache_only")
    base = (0, 0, 0, 0)
    power_report = None

    # Hoist per-iteration lookups out of the replay loop: the loop body
    # runs once per request, and the config fields and bound methods are
    # loop-invariant.
    warmup = config.warmup_requests
    power_loss_at = config.power_loss_at if device else None
    sample_interval = config.sample_interval
    metadata_add = metrics.metadata_bytes.add
    policy_metadata_bytes = policy.metadata_bytes

    # The loop leaves ``i`` and ``request`` at the last request it
    # submitted, the aborted one included.
    i = -1
    if profiler.enabled:
        profiler.start("replay")
    try:
        for i, request in enumerate(trace):
            if warmup and i == warmup and controller is not None:
                # Exclude warmup traffic from the flash counters.
                base = _flash_counters(controller)
            try:
                record = step(request)
                if power_loss_at is not None and i == power_loss_at:
                    power_report = inject_power_loss(
                        controller,
                        request.time if shaper is None else shaper.last_submit,
                        at_request=i,
                        capacitor_pages=config.capacitor_pages,
                        profile=profile,
                    )
            except FlashOutOfSpace as exc:
                metrics.aborted_reason = str(exc)
                metrics.aborted_at_request = i
                if flight is not None:
                    fold_pending()
                    flight.record_dump(f"replay_aborted: {exc}", metrics)
                break
            if i < warmup:
                continue
            pending_append((request, record))
            if accountant is not None:
                accountant.record(request, record)
            if recorder is not None:
                recorder.record(request, record)
                sampler.maybe_sample(
                    i, request.time if shaper is None else shaper.last_submit
                )
            if not i % FOLD_CHUNK:
                fold_pending()
                if not i % METADATA_SAMPLE_INTERVAL:
                    metadata_add(policy_metadata_bytes())
                    if telemetry is not None:
                        # A cache-only replay has no GC, hence no erases.
                        erased = controller.gc.stats.blocks_erased if controller else 0
                        telemetry.maybe_emit(i, metrics.pages.ratio, erased)
            if track_lists and not i % sample_interval and i > 0:
                metrics.list_log.append((i, policy.list_page_counts()))
        fold_pending()

        # When the last request went to the device: its arrival in the
        # open loop, its submission under queue-depth shaping.
        last_time = 0.0
        if i >= 0:
            last_time = request.time if shaper is None else shaper.last_submit
        if (
            config.drain_at_end
            and controller is not None
            and i >= 0
            and not metrics.aborted
        ):
            controller.drain(last_time)
    except BaseException as exc:
        # A dying replay (invariant violation, injected chaos, ^C) takes
        # its last-N events with it: snapshot them at the failure site,
        # where the partial metrics are still live, and let the caller
        # (CLI or supervised worker) decide where the dump goes.
        if flight is not None:
            fold_pending()
            flight.record_dump(f"exception: {type(exc).__name__}: {exc}", metrics)
        raise
    finally:
        if profiler.enabled:
            profiler.stop()

    if sampler is not None and i >= 0:
        sampler.finalize(i, last_time)
        metrics.metrics_series = sampler.series
    if profiler.enabled:
        metrics.phase_profile = profiler.as_dict()
    if digest is not None:
        metrics.eviction_digest = digest.hexdigest()
    if accountant is not None:
        metrics.tenants = accountant.stats

    if controller is None:
        # Every evicted page is a host flush, and nothing else programs.
        flushed = int(sum(size * n for size, n in metrics.eviction_hist.items()))
        metrics.host_flush_pages = metrics.flash_total_writes = flushed
    else:
        flushed, migrated, erased, programs = _flash_counters(controller)
        metrics.host_flush_pages = flushed - base[0]
        metrics.gc_migrated_pages = migrated - base[1]
        metrics.gc_erases = erased - base[2]
        metrics.flash_total_writes = programs - base[3]
        if len(trace):
            # Utilisation over the replay horizon: the later of the last
            # submission (the open loop's last arrival, even when it
            # aborted) and the moment the last plane goes idle.
            resources = controller.resources
            horizon = max(
                trace[len(trace) - 1].time if shaper is None else last_time,
                max(resources.plane_free, default=0.0),
            )
            plane_u = resources.utilisation(horizon)
            bus_u = resources.bus_utilisation(horizon)
            if plane_u:
                metrics.mean_plane_utilisation = sum(plane_u) / len(plane_u)
                metrics.max_plane_utilisation = max(plane_u)
            if bus_u:
                metrics.mean_bus_utilisation = sum(bus_u) / len(bus_u)
        if (
            faults is not None
            or power_report is not None
            or controller.degraded.active
            or metrics.aborted
        ):
            durability = controller.durability_report()
            durability.power_loss = power_report
            metrics.durability = durability
    if flight is not None and flight.degraded_reason is not None:
        # DegradedMode entry is dump-worthy even when the replay ran to
        # completion (the device limped home read-only); first recorded
        # dump wins, so an earlier abort snapshot is never overwritten.
        flight.record_dump(f"degraded_mode_entered: {flight.degraded_reason}", metrics)
    if checker is not None:
        checker.close()
    return metrics


def replay_trace(trace: Trace, config: ReplayConfig) -> ReplayMetrics:
    """Replay ``trace`` open-loop on the full device model.

    Every request is submitted at its trace timestamp.  Device-fatal
    errors (:class:`FlashOutOfSpace` escaping the controller's
    degraded-mode net) do not lose the run: the replay stops, the
    metrics collected so far are finalised, and
    ``metrics.aborted_reason`` records why (the CLI maps this to a
    distinct exit code).
    """
    return _replay(trace, config)


def replay_closed_loop(
    trace: Trace,
    config: ReplayConfig,
    queue_depth: Optional[int] = 32,
) -> ReplayMetrics:
    """Replay ``trace`` with at most ``queue_depth`` requests in flight.

    Returns the same :class:`ReplayMetrics` as ``replay_trace``, with
    response times measured from the trace arrival, so they include
    host-side queueing delay.  ``queue_depth=None`` (unbounded)
    reproduces ``replay_trace``.
    """
    if queue_depth is not None:
        require_positive(queue_depth, "queue_depth")
    return _replay(trace, config, queue_depth=queue_depth, closed_loop=True)


def replay_cache_only(trace: Trace, config: ReplayConfig) -> ReplayMetrics:
    """Replay through the cache policy alone (no flash timing/GC).

    Response-time fields stay zero (every request is recorded with
    ``response_ms=0.0``); hit ratios, eviction histogram, metadata
    samples and list logs are identical to a full replay because the
    policy never observes the flash backend —
    ``tests/sim/test_replay.py::TestFastPathEquivalence`` pins this.
    """
    return _replay(trace, config, device=False)
