"""Closed-loop (queue-depth-limited) trace replay.

The paper replays traces open-loop: requests are issued at their trace
timestamps regardless of how the device keeps up, so a slow policy
accumulates unbounded queueing delay.  Real hosts bound the number of
outstanding requests; this module adds that behaviour as an alternative
driver: request *i* is submitted at

    ``max(arrival_i, completion_{i - queue_depth}, submit_{i-1})``

i.e. no more than ``queue_depth`` requests are ever in flight, and
submissions stay time-ordered (a requirement of the resource
timelines).  Response time is still measured from the trace arrival, so
host-side queueing counts toward latency — the usual closed-loop
convention.

``queue_depth=None`` (unbounded) reproduces ``replay_trace`` exactly,
which the test-suite checks.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Deque, Optional

from repro.core.policy import ReqBlockCache
from repro.faults.injector import FaultInjector
from repro.faults.powerloss import inject_power_loss
from repro.faults.profile import get_profile
from repro.sim.metrics import ReplayMetrics, fold_eviction_digest
from repro.sim.replay import (
    METADATA_SAMPLE_INTERVAL,
    ReplayConfig,
    _build_policy,
    _fold_utilisation,
    _resolve_accountant,
    _resolve_recorder,
    resolve_tracer,
    sized_ssd_for,
)
from repro.ssd.controller import RequestRecord, SSDController, _tuple_new
from repro.ssd.flash import FlashOutOfSpace
from repro.traces.model import IORequest, Trace
from repro.utils.validation import require_positive

__all__ = ["replay_closed_loop"]


def replay_closed_loop(
    trace: Trace,
    config: ReplayConfig,
    queue_depth: Optional[int] = 32,
) -> ReplayMetrics:
    """Replay ``trace`` with at most ``queue_depth`` requests in flight.

    Returns the same :class:`ReplayMetrics` as ``replay_trace``;
    response times include host-side queueing delay (completion minus
    *trace arrival*).
    """
    if queue_depth is not None:
        require_positive(queue_depth, "queue_depth")
    policy = _build_policy(config)
    tracer, checker = resolve_tracer(config)
    ssd_config = config.ssd or sized_ssd_for(
        trace, over_provisioning=config.over_provisioning
    )
    profile = get_profile(config.fault_profile)
    faults = (
        FaultInjector(profile, seed=config.fault_seed)
        if profile is not None
        else None
    )
    controller = SSDController(
        ssd_config,
        policy,
        cache_service_ms_per_page=config.cache_service_ms_per_page,
        gc_victim_policy=config.gc_victim_policy,
        mapping_cache_bytes=config.mapping_cache_bytes,
        tracer=tracer,
        faults=faults,
        metrics=config.metrics,
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
    last_index, last_time = -1, 0.0

    completions: Deque[float] = deque()
    last_submit = 0.0
    power_report = None
    for i, request in enumerate(trace):
        submit = max(request.time, last_submit)
        if queue_depth is not None and len(completions) >= queue_depth:
            # The oldest outstanding request must finish before the next
            # submission slot opens.
            submit = max(submit, completions.popleft())
        last_submit = submit
        shifted = (
            request
            if submit == request.time
            else IORequest(submit, request.op, request.lpn, request.npages)
        )
        try:
            record = controller.submit(shifted)
            if config.power_loss_at is not None and i == config.power_loss_at:
                power_report = inject_power_loss(
                    controller,
                    submit,
                    at_request=i,
                    capacitor_pages=config.capacitor_pages,
                    profile=profile,
                )
        except FlashOutOfSpace as exc:
            metrics.aborted_reason = str(exc)
            metrics.aborted_at_request = i
            break
        completion = submit + record.response_ms
        completions.append(completion)
        if queue_depth is not None:
            while len(completions) > queue_depth:
                completions.popleft()
        # Latency accounting from the *trace* arrival.
        outcome = record.outcome
        queued_record = _tuple_new(RequestRecord, (completion - request.time, outcome))
        metrics.record(request, queued_record)
        if accountant is not None:
            accountant.record(request, queued_record)
        if digest is not None and outcome.flushes:
            fold_eviction_digest(digest, outcome.flushes)
        last_index, last_time = i, submit
        if recorder is not None:
            recorder.record(request, queued_record)
            sampler.maybe_sample(i, submit)
        if i % METADATA_SAMPLE_INTERVAL == 0:
            metrics.metadata_bytes.add(policy.metadata_bytes())
        if track_lists and i % config.sample_interval == 0 and i > 0:
            metrics.list_log.append((i, policy.list_page_counts()))

    if sampler is not None and last_index >= 0:
        sampler.finalize(last_index, last_time)
        metrics.metrics_series = sampler.series
    if digest is not None:
        metrics.eviction_digest = digest.hexdigest()
    if accountant is not None:
        metrics.tenants = accountant.stats
    metrics.host_flush_pages = controller.flushed_pages
    metrics.gc_migrated_pages = controller.gc.stats.pages_migrated
    metrics.gc_erases = controller.gc.stats.blocks_erased
    metrics.flash_total_writes = controller.total_flash_writes
    if len(trace):
        _fold_utilisation(metrics, controller, last_submit)
    if (
        faults is not None
        or power_report is not None
        or controller.degraded.active
        or metrics.aborted
    ):
        durability = controller.durability_report()
        durability.power_loss = power_report
        metrics.durability = durability
    if checker is not None:
        checker.close()
    return metrics
