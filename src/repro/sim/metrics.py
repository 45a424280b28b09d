"""Replay metric aggregation.

One :class:`ReplayMetrics` instance accumulates everything the paper's
figures report, in O(1) memory per request:

* page-granularity hit ratio, split by read/write (Fig. 9);
* per-request response time statistics (Fig. 8);
* eviction batch-size histogram (Fig. 10);
* flash write counts, host flushes and GC traffic separately (Fig. 11);
* replacement-metadata footprint samples (Fig. 12);
* Req-block's per-list page counts, logged every 10k requests (Fig. 13).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.base import AccessOutcome, FlushBatch, PageEvictions
from repro.faults.report import DurabilityReport
from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL, MetricsRegistry
from repro.sim.tenant import TenantStats
from repro.ssd.controller import RequestRecord
from repro.traces.model import IORequest, OpType
from repro.utils.stats import Histogram, RatioCounter, ReservoirQuantiles, RunningStats

__all__ = [
    "MetricsRecorder",
    "ReplayMetrics",
    "fold_eviction_digest",
    "merge_metrics",
]

#: Fig. 13: "logged once for every 10,000 requests".  Shared with the
#: metrics time-series cadence (``repro.obs.metrics``) so the list log
#: and the telemetry snapshots land on the same request indices.
LIST_LOG_INTERVAL = DEFAULT_SAMPLE_INTERVAL

#: ``ReplayMetrics.record`` tests every request's op against this: one
#: global load instead of a global plus an enum attribute load.
_READ = OpType.READ


def fold_eviction_digest(hasher: "hashlib._Hash", flushes: Iterable[FlushBatch]) -> None:
    """Fold one access's flush batches into an eviction-sequence hash.

    The encoding — ``repr((tuple(lpns), pin_key))`` per non-empty batch,
    in emission order — is the same one the optimisation-equivalence
    suite (``tests/sim/test_optimized_equivalence.py``) pins against the
    seed implementations, so replay digests are directly comparable to
    those goldens.  Order-sensitive by construction: any reordered,
    dropped, or recomposed batch changes the digest.

    A one-page batch is formatted directly; the f-string is the same
    text as the ``repr``.  LRU's :class:`PageEvictions` run is folded in
    one ``update`` of those texts joined (LPNs are ints, whose ``str`` is
    their ``repr``).
    """
    if type(flushes) is PageEvictions:
        lpns = flushes.lpns
        if lpns:
            text = "((" + ",), None)((".join(map(str, lpns)) + ",), None)"
            hasher.update(text.encode())
        return
    for batch in flushes:
        lpns = batch.lpns
        if len(lpns) == 1:
            hasher.update(f"(({lpns[0]!r},), {batch.pin_key!r})".encode())
        elif lpns:
            hasher.update(repr((tuple(lpns), batch.pin_key)).encode())


class MetricsRecorder:
    """Per-request instrument recording for the replay loops.

    Binds the host/cache instruments once at replay start and folds each
    serviced request's :class:`~repro.cache.base.AccessOutcome` in — the
    cache policies themselves never touch per-page instruments, so their
    hot loops stay identical with metrics on or off (only rare paths
    like Req-block splits carry their own counters).

    The scalar counts accumulate in plain attributes and are pushed into
    the registry's counters by a collector right before each snapshot
    (same lazy discipline as the device gauges); only the distribution
    instruments — the response-time/eviction-batch histograms and the
    request rate — are fed per event, because they cannot be
    reconstructed from totals.  This keeps the per-request cost to a few
    integer adds (~5% of fast-path replay time, see the benchmark
    baseline).
    """

    __slots__ = (
        "registry",
        "n_requests",
        "n_reads",
        "n_writes",
        "page_hits",
        "page_misses",
        "inserted_pages",
        "read_miss_pages",
        "evictions",
        "evicted_pages",
        "_eviction_batch",
        "_response",
        "_rate",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.n_requests = 0
        self.n_reads = 0
        self.n_writes = 0
        self.page_hits = 0
        self.page_misses = 0
        self.inserted_pages = 0
        self.read_miss_pages = 0
        self.evictions = 0
        self.evicted_pages = 0
        self._eviction_batch = registry.histogram("cache.eviction_batch_pages")
        self._response = registry.histogram("host.response_ms")
        self._rate = registry.rate("host.request_rate", window=1000.0)

        requests = registry.counter("host.requests_total")
        reads = registry.counter("host.read_requests_total")
        writes = registry.counter("host.write_requests_total")
        hits = registry.counter("cache.page_hits_total")
        misses = registry.counter("cache.page_misses_total")
        inserted = registry.counter("cache.inserted_pages_total")
        read_miss = registry.counter("cache.read_miss_pages_total")
        evictions = registry.counter("cache.evictions_total")
        evicted = registry.counter("cache.evicted_pages_total")

        def flush_counts(_now: float) -> None:
            requests.value = self.n_requests
            reads.value = self.n_reads
            writes.value = self.n_writes
            hits.value = self.page_hits
            misses.value = self.page_misses
            inserted.value = self.inserted_pages
            read_miss.value = self.read_miss_pages
            evictions.value = self.evictions
            evicted.value = self.evicted_pages

        registry.register_collector(flush_counts)

    def record(self, request: IORequest, record: RequestRecord) -> None:
        """Fold one serviced request into the instruments."""
        outcome = record.outcome
        self.n_requests += 1
        if request.op is OpType.READ:
            self.n_reads += 1
        else:
            self.n_writes += 1
        self.page_hits += outcome.page_hits
        self.page_misses += outcome.page_misses
        self.inserted_pages += outcome.inserted_pages
        if outcome.read_miss_lpns:
            self.read_miss_pages += len(outcome.read_miss_lpns)
        if outcome.flushes:
            for batch in outcome.flushes:
                if batch.lpns:
                    self.evictions += 1
                    self.evicted_pages += len(batch.lpns)
                    self._eviction_batch.observe(len(batch.lpns))
        self._response.observe(record.response_ms)
        self._rate.mark(request.time)


@dataclass(slots=True)
class ReplayMetrics:
    """Aggregated results of replaying one trace through one policy.

    ``slots=True``: :meth:`record` runs once per request and reads ~10
    attributes; slot loads skip the instance-dict probe (and the class
    pickles the same way, which the parallel engine relies on)."""

    trace_name: str = ""
    policy_name: str = ""
    cache_pages: int = 0

    # Cache behaviour.
    pages: RatioCounter = field(default_factory=RatioCounter)
    read_pages: RatioCounter = field(default_factory=RatioCounter)
    write_pages: RatioCounter = field(default_factory=RatioCounter)

    # Timing.
    response_ms: RunningStats = field(default_factory=RunningStats)
    read_response_ms: RunningStats = field(default_factory=RunningStats)
    write_response_ms: RunningStats = field(default_factory=RunningStats)
    response_quantiles: ReservoirQuantiles = field(
        default_factory=ReservoirQuantiles
    )

    # Evictions.
    eviction_hist: Histogram = field(default_factory=Histogram)

    # Flash traffic (filled in at the end of replay).
    host_flush_pages: int = 0
    gc_migrated_pages: int = 0
    gc_erases: int = 0
    flash_total_writes: int = 0

    # Metadata footprint (sampled).
    metadata_bytes: RunningStats = field(default_factory=RunningStats)

    # Device utilisation over the replay horizon (full replays only).
    mean_plane_utilisation: float = 0.0
    max_plane_utilisation: float = 0.0
    mean_bus_utilisation: float = 0.0

    # Req-block list occupancy log: (request index, {"IRL": n, ...}).
    list_log: List[Tuple[int, Dict[str, int]]] = field(default_factory=list)

    # Runtime telemetry (opt-in; see docs/metrics.md).  ``metrics_series``
    # is the sampler's snapshot list (one flat dict per cadence point);
    # ``phase_profile`` maps phase name -> calls/total_ms/self_ms when the
    # replay ran with a profiler.  Both stay out of :meth:`summary` so
    # the headline numbers are unchanged whether telemetry is on or off.
    metrics_series: List[Dict[str, float]] = field(default_factory=list)
    phase_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)

    #: Hex sha256 over the eviction sequence (see
    #: :func:`fold_eviction_digest`), populated when the replay ran with
    #: ``ReplayConfig.digest_evictions``; empty otherwise.  Kept out of
    #: :meth:`summary` so enabling digests never changes reported
    #: numbers.  Merging shards chains the per-shard digests in shard
    #: order, so a merged digest is reproducible but — unlike every
    #: other field — only comparable between runs that used the same
    #: shard boundaries.
    eviction_digest: str = ""

    #: Per-tenant rollups (tenant index -> :class:`TenantStats`),
    #: populated when the replay ran with a tenant map configured.
    #: Empty for legacy single-tenant runs, and absent from
    #: :meth:`summary`, so enabling tenancy never perturbs the headline
    #: numbers.  Merges per-key like every other field.
    tenants: Dict[int, TenantStats] = field(default_factory=dict)

    n_requests: int = 0

    # Robustness (see repro.faults).  ``aborted_reason`` is set when a
    # device-fatal error cut the replay short — the metrics accumulated
    # up to that point are still valid partial results.  ``durability``
    # is populated whenever fault injection, a power loss, or degraded
    # mode touched the run.
    aborted_reason: str = ""
    aborted_at_request: int = -1
    durability: Optional[DurabilityReport] = None

    @property
    def aborted(self) -> bool:
        """Whether the replay ended early on a device-fatal error."""
        return bool(self.aborted_reason)

    @property
    def salvaged(self) -> bool:
        """Whether the shard supervisor dropped failed shards to finish
        this run (see :mod:`repro.sim.supervisor`)."""
        return self.durability is not None and self.durability.salvaged

    @property
    def shard_coverage(self) -> float:
        """Fraction of planned shards represented in these metrics
        (1.0 for unsupervised and clean supervised runs)."""
        if self.durability is None:
            return 1.0
        return self.durability.shard_coverage

    # ------------------------------------------------------------------
    def record(self, request: IORequest, record: RequestRecord) -> None:
        """Fold one serviced request into the aggregates.

        The :class:`RunningStats` / :class:`ReservoirQuantiles` updates
        are inlined (same statements, same order as their ``add``
        methods — each accumulator's float-op sequence is unchanged, so
        the results stay bit-identical); this method runs once per
        request and the call overhead was visible in replay profiles.
        """
        x, outcome = record
        hits = outcome.page_hits
        total = hits + outcome.page_misses
        self.n_requests += 1
        pages = self.pages
        pages.hits += hits
        pages.total += total
        if request.op is _READ:
            side = self.read_pages
            rs = self.read_response_ms
        else:
            side = self.write_pages
            rs = self.write_response_ms
        side.hits += hits
        side.total += total
        # Inlined RunningStats.add — per-side response stream.
        rs.count = n = rs.count + 1
        rs.total += x
        mean = rs._mean
        delta = x - mean
        mean += delta / n
        rs._mean = mean
        rs._m2 += delta * (x - mean)
        if x < rs.min:
            rs.min = x
        if x > rs.max:
            rs.max = x
        # Inlined RunningStats.add — overall response stream.
        rs = self.response_ms
        rs.count = n = rs.count + 1
        rs.total += x
        mean = rs._mean
        delta = x - mean
        mean += delta / n
        rs._mean = mean
        rs._m2 += delta * (x - mean)
        if x < rs.min:
            rs.min = x
        if x > rs.max:
            rs.max = x
        # Inlined ReservoirQuantiles.add (same seeded LCG stepping).
        rq = self.response_quantiles
        rq.count = n = rq.count + 1
        samples = rq._samples
        if len(samples) < rq.capacity:
            samples.append(x)
        else:
            rq._state = state = (rq._state * 0x5DEECE66D + 0xB) & 0xFFFFFFFFFFFF
            j = (state >> 16) % n
            if j < rq.capacity:
                samples[j] = x
        flushes = outcome.flushes
        if flushes:
            # Inlined Histogram.add.
            buckets = self.eviction_hist._buckets
            if type(flushes) is PageEvictions:
                # LRU's run: one single-page batch per LPN.  Adding the
                # count at once is exact (integer-valued floats).
                buckets[1] = buckets.get(1, 0.0) + len(flushes.lpns)
            else:
                buckets_get = buckets.get
                for batch in flushes:
                    lpns = batch.lpns
                    if lpns:
                        k = len(lpns)
                        buckets[k] = buckets_get(k, 0.0) + 1.0

    # ------------------------------------------------------------------
    # Parallel reduction
    # ------------------------------------------------------------------
    def merge(self, other: "ReplayMetrics") -> "ReplayMetrics":
        """Fold another shard's metrics into this one; returns ``self``.

        The parallel engine reduces shard results with a left fold in
        shard-index order, so ``merge`` only has to be deterministic for
        a *fixed* fold order — worker completion order never reaches it.
        Integer counters, histograms and the hit/total ratios combine
        exactly (they are associative); the Welford accumulators merge
        with the standard pooled-moment formulas, which agree with the
        serial fold on count/min/max/total exactly and on mean/variance
        to floating-point reassociation error; the quantile reservoirs
        concatenate (exact while the combined sample count stays within
        capacity, deterministic stride-thinning beyond).

        ``other``'s request-indexed logs (``list_log``,
        ``metrics_series``, ``aborted_at_request``) are shifted by the
        requests already folded into ``self``, so merged indices match a
        serial replay's numbering.  A fresh ``ReplayMetrics()`` is the
        identity element.  ``other`` is not modified.
        """
        offset = self.n_requests
        if not self.trace_name:
            self.trace_name = other.trace_name
        if not self.policy_name:
            self.policy_name = other.policy_name
        if not self.cache_pages:
            self.cache_pages = other.cache_pages

        self.pages.merge(other.pages)
        self.read_pages.merge(other.read_pages)
        self.write_pages.merge(other.write_pages)
        self.response_ms.merge(other.response_ms)
        self.read_response_ms.merge(other.read_response_ms)
        self.write_response_ms.merge(other.write_response_ms)
        self.response_quantiles.merge(other.response_quantiles)
        self.eviction_hist.merge(other.eviction_hist)
        self.metadata_bytes.merge(other.metadata_bytes)

        self.host_flush_pages += other.host_flush_pages
        self.gc_migrated_pages += other.gc_migrated_pages
        self.gc_erases += other.gc_erases
        self.flash_total_writes += other.flash_total_writes

        # Device utilisation: request-weighted mean of means, max of
        # maxes (each shard ran its own device over its own horizon).
        total = self.n_requests + other.n_requests
        if total:
            w_self, w_other = self.n_requests / total, other.n_requests / total
            self.mean_plane_utilisation = (
                w_self * self.mean_plane_utilisation
                + w_other * other.mean_plane_utilisation
            )
            self.mean_bus_utilisation = (
                w_self * self.mean_bus_utilisation
                + w_other * other.mean_bus_utilisation
            )
        self.max_plane_utilisation = max(
            self.max_plane_utilisation, other.max_plane_utilisation
        )

        self.list_log.extend(
            (offset + i, dict(counts)) for i, counts in other.list_log
        )
        for snapshot in other.metrics_series:
            shifted = dict(snapshot)
            if "index" in shifted:
                shifted["index"] = offset + shifted["index"]
            self.metrics_series.append(shifted)
        for phase, cells in other.phase_profile.items():
            mine = self.phase_profile.setdefault(phase, {})
            for key, value in cells.items():
                mine[key] = mine.get(key, 0.0) + value

        for tenant, stats in other.tenants.items():
            mine = self.tenants.get(tenant)
            if mine is None:
                self.tenants[tenant] = TenantStats().merge(stats)
            else:
                mine.merge(stats)

        if other.eviction_digest:
            if self.eviction_digest:
                h = hashlib.sha256()
                h.update(self.eviction_digest.encode())
                h.update(other.eviction_digest.encode())
                self.eviction_digest = h.hexdigest()
            else:
                self.eviction_digest = other.eviction_digest

        if other.aborted and not self.aborted:
            self.aborted_reason = other.aborted_reason
            self.aborted_at_request = offset + other.aborted_at_request

        if other.durability is not None:
            if self.durability is None:
                self.durability = copy.deepcopy(other.durability)
            else:
                self.durability.merge(other.durability)

        self.n_requests = total
        return self

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    @property
    def hit_ratio(self) -> float:
        """Fraction of accessed pages absorbed by the cache (Fig. 9)."""
        return self.pages.ratio

    @property
    def mean_response_ms(self) -> float:
        """Mean per-request I/O response time (Fig. 8)."""
        return self.response_ms.mean

    @property
    def total_response_ms(self) -> float:
        """Summed response time — the figure's 'overall I/O response time'."""
        return self.response_ms.total

    def response_percentile(self, q: float) -> float:
        """Estimated response-time quantile (e.g. q=0.99 for p99)."""
        return self.response_quantiles.quantile(q)

    @property
    def eviction_count(self) -> int:
        """Total eviction operations observed."""
        return int(round(sum(w for _k, w in self.eviction_hist.items())))

    @property
    def mean_eviction_pages(self) -> float:
        """Average pages per eviction operation (Fig. 10)."""
        return self.eviction_hist.mean()

    @property
    def mean_metadata_kb(self) -> float:
        """Average replacement-metadata footprint in KB (Fig. 12)."""
        return self.metadata_bytes.mean / 1024.0

    @property
    def max_metadata_kb(self) -> float:
        """Peak sampled metadata footprint in KB."""
        return (self.metadata_bytes.max / 1024.0) if self.metadata_bytes.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers (report/CSV friendly)."""
        return {
            "trace": self.trace_name,
            "policy": self.policy_name,
            "cache_pages": self.cache_pages,
            "requests": self.n_requests,
            "hit_ratio": self.hit_ratio,
            "read_hit_ratio": self.read_pages.ratio,
            "write_hit_ratio": self.write_pages.ratio,
            "mean_response_ms": self.mean_response_ms,
            "p99_response_ms": self.response_percentile(0.99),
            "total_response_ms": self.total_response_ms,
            "evictions": self.eviction_count,
            "mean_eviction_pages": self.mean_eviction_pages,
            "host_flush_pages": self.host_flush_pages,
            "gc_migrated_pages": self.gc_migrated_pages,
            "flash_total_writes": self.flash_total_writes,
            "mean_metadata_kb": self.mean_metadata_kb,
            "mean_plane_utilisation": self.mean_plane_utilisation,
        }

    def tenant_summary(self) -> Dict[int, Dict[str, float]]:
        """Per-tenant headline numbers, keyed by tenant index.

        Empty for legacy (tenant-less) replays; see
        :class:`repro.sim.tenant.TenantStats`.
        """
        return {i: self.tenants[i].summary() for i in sorted(self.tenants)}


def merge_metrics(parts: Sequence[ReplayMetrics]) -> ReplayMetrics:
    """Left-fold shard metrics, in sequence order, into a fresh instance.

    The single reduction point of the parallel engine: callers sort
    shard results by shard index *before* reducing, so the outcome is
    independent of worker scheduling.  An empty sequence yields an
    all-zero :class:`ReplayMetrics`; the inputs are never modified.
    """
    merged = ReplayMetrics()
    for part in parts:
        merged.merge(part)
    return merged
