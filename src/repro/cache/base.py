"""Cache-policy framework shared by all replacement schemes.

Semantics follow the paper's Algorithm 1: the DRAM data cache is a
**write buffer**.  Requests are processed page by page, in LPN order:

* a **write page** that is already cached is updated in place (a *hit*);
  otherwise it is inserted (a *miss*), evicting first if the cache is
  full;
* a **read page** that is cached is served from DRAM (a *hit*);
  otherwise it is read from flash (a *miss*) and **not** inserted.

A policy's ``access`` returns an :class:`AccessOutcome` describing what
happened; evictions are expressed as :class:`FlushBatch` objects — the
SSD controller turns each batch into flash programs, striped across
channels unless the batch carries a ``pin_key`` (BPLRU's single-block
flush).  Policies never touch the SSD directly, which keeps them unit-
testable in isolation and lets the analysis experiments run them without
a timing model at all.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, List, Optional

from repro.obs.events import CacheHit, CacheMiss, Evict, Insert
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.traces.model import IORequest
from repro.utils.validation import require_positive

__all__ = [
    "FlushBatch",
    "PageEvictions",
    "AccessOutcome",
    "CachePolicy",
    "WriteBufferPolicy",
]


@dataclass(slots=True)
class FlushBatch:
    """A set of pages evicted together (flushed to flash in one batch)."""

    lpns: List[int]
    reason: str = "capacity"
    #: When set, the controller programs the whole batch into the plane
    #: ``pin_key % n_planes`` instead of striping it — models policies
    #: that flush a logical block onto one physical SSD block.
    pin_key: Optional[int] = None

    def __len__(self) -> int:
        return len(self.lpns)


class PageEvictions(Sequence[FlushBatch]):
    """Read-only run of one-page capacity evictions, in victim order.

    Seen as a sequence it is ``[FlushBatch([lpn]) for lpn in lpns]``:
    item *i* is built on access as ``FlushBatch([lpns[i]])``, reason
    ``"capacity"``, no pin, and length, truth, iteration, indexing
    (slices give that list's slice) and ``==`` against a list match the
    list's.  LRU's fused ``access`` stores one per evicting request, so
    it allocates no batch per victim; the hot consumers (the
    controller's flush path, ``ReplayMetrics.record`` and
    ``fold_eviction_digest``) test ``type(flushes) is PageEvictions`` and
    read ``lpns`` whole.
    """

    __slots__ = ("lpns",)

    def __init__(self, lpns: List[int]) -> None:
        #: The evicted LPNs, one per batch.
        self.lpns = lpns

    def __len__(self) -> int:
        return len(self.lpns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [FlushBatch([lpn]) for lpn in self.lpns[index]]
        return FlushBatch([self.lpns[index]])

    def __iter__(self) -> Iterator[FlushBatch]:
        for lpn in self.lpns:
            yield FlushBatch([lpn])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PageEvictions):
            return self.lpns == other.lpns
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PageEvictions({self.lpns!r})"


@dataclass(slots=True)
class AccessOutcome:
    """Per-request result of a cache access (page granularity).

    ``flushes`` is a sequence of :class:`FlushBatch`: the outcome's own
    list, which policies append to, or — from LRU's fused ``access`` —
    a :class:`PageEvictions` view over the request's victims.  Read it
    as a sequence; never mutate it.
    """

    #: Pages found in the cache (read hits + write updates).
    page_hits: int = 0
    #: Pages not found (write inserts + read misses).
    page_misses: int = 0
    #: Read pages that must be fetched from flash.
    read_miss_lpns: List[int] = field(default_factory=list)
    #: Write pages newly inserted into the cache.
    inserted_pages: int = 0
    #: Evictions triggered while serving this request, in order.
    flushes: "List[FlushBatch] | PageEvictions" = field(default_factory=list)

    @property
    def total_pages(self) -> int:
        """Pages touched by the request (hits + misses)."""
        return self.page_hits + self.page_misses

    @property
    def flushed_pages(self) -> int:
        """Pages evicted across all flush batches of this access."""
        return sum(len(b) for b in self.flushes)


class CachePolicy(abc.ABC):
    """Abstract DRAM-cache replacement policy.

    Subclasses set ``name`` (registry key) and ``node_bytes`` (per-item
    metadata size used by the Figure-12 space-overhead model) and
    implement the page-granularity access protocol.
    """

    #: Registry key; subclasses must override.
    name: ClassVar[str] = ""
    #: Bytes of list metadata per cached item (paper §4.2.5: page node
    #: 12 B, block node 24 B, request-block node 32 B).
    node_bytes: ClassVar[int] = 12

    def __init__(self, capacity_pages: int) -> None:
        require_positive(capacity_pages, "capacity_pages")
        self.capacity_pages = capacity_pages
        #: Observability sink (see :mod:`repro.obs`).  Defaults to the
        #: shared disabled tracer.  A policy's page loop binds ``emit =
        #: tracer.emit if tracer.enabled else None`` once per request and
        #: guards each emission site with ``if emit is not None:``.
        self.tracer: Tracer = NULL_TRACER
        #: Metrics registry (see :mod:`repro.obs.metrics`).  Defaults to
        #: the shared disabled registry; per-request cache counters are
        #: recorded from the :class:`AccessOutcome` by the replay layer,
        #: so policies only pay for metrics on their rare paths.
        self.metrics: MetricsRegistry = NULL_METRICS
        #: Monotone per-policy request sequence number carried by events.
        self._req_seq = 0
        #: Logical per-page clock stamped on events (advances only while
        #: a tracer is enabled; event times are meaningful within a run,
        #: not across tracer reconfiguration).
        self._event_clock = 0

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach an event tracer (None restores the disabled default)."""
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def set_metrics(self, registry: Optional[MetricsRegistry]) -> None:
        """Attach a metrics registry (None restores the disabled default).

        Registers a collector refreshing the generic cache gauges
        (occupancy, capacity, metadata footprint) right before each
        snapshot; subclasses extend this with their own instruments.  A
        registry is bound to one replay — do not reuse across runs.
        """
        self.metrics = registry if registry is not None else NULL_METRICS
        if not self.metrics.enabled:
            return
        occupancy = self.metrics.gauge("cache.occupancy_pages")
        capacity = self.metrics.gauge("cache.capacity_pages")
        metadata = self.metrics.gauge("cache.metadata_bytes")

        def collect(_now: float) -> None:
            occupancy.set(self.occupancy())
            capacity.set(self.capacity_pages)
            metadata.set(self.metadata_bytes())

        self.metrics.register_collector(collect)

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def access(self, request: IORequest) -> AccessOutcome:
        """Serve one request through the cache (Algorithm 1 main loop)."""

    @abc.abstractmethod
    def occupancy(self) -> int:
        """Number of pages currently cached (always <= capacity)."""

    @abc.abstractmethod
    def contains(self, lpn: int) -> bool:
        """Whether ``lpn`` is currently cached."""

    @abc.abstractmethod
    def cached_lpns(self) -> Iterable[int]:
        """All cached LPNs (order unspecified); for tests and draining."""

    @abc.abstractmethod
    def metadata_nodes(self) -> int:
        """Live replacement-metadata node count (space-overhead model)."""

    # ------------------------------------------------------------------
    # Common services
    # ------------------------------------------------------------------
    def metadata_bytes(self) -> int:
        """Current metadata footprint in bytes (Fig. 12)."""
        return self.metadata_nodes() * self.node_bytes

    def flush_all(self) -> FlushBatch:
        """Drain the cache (device shutdown); returns one batch of all pages.

        Policies must override this (and reset their internal structure
        while doing so); the base implementation raises.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support flush_all")

    def validate(self) -> None:
        """Check internal invariants (tests); default checks capacity."""
        occ = self.occupancy()
        assert 0 <= occ <= self.capacity_pages, (
            f"{self.name}: occupancy {occ} outside [0, {self.capacity_pages}]"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} capacity={self.capacity_pages} "
            f"occupancy={self.occupancy()}>"
        )


class WriteBufferPolicy(CachePolicy):
    """Base class implementing the Algorithm-1 page loop.

    Subclasses implement the four primitive hooks; the base class walks
    the request's pages, dispatches to them, and assembles the
    :class:`AccessOutcome`.  This mirrors Algorithm 1's structure:
    ``while size != 0: if is_in_cache(lpn): ... else: ...``.

    Hooks
    -----
    ``_on_hit(lpn, request)``
        ``lpn`` is cached and was read or updated; adjust recency
        structures.
    ``_insert(lpn, request, outcome)``
        Cache the written page ``lpn`` (cache is guaranteed non-full).
    ``_evict_one(outcome)``
        The cache is full; evict at least one page, appending the
        resulting :class:`FlushBatch` to ``outcome.flushes``.
    """

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self._occupancy = 0

    # -- hooks ---------------------------------------------------------
    @abc.abstractmethod
    def _on_hit(self, lpn: int, request: IORequest) -> None: ...

    @abc.abstractmethod
    def _insert(self, lpn: int, request: IORequest, outcome: AccessOutcome) -> None: ...

    @abc.abstractmethod
    def _evict_one(self, outcome: AccessOutcome) -> None: ...

    # -- template ------------------------------------------------------
    def access(self, request: IORequest) -> AccessOutcome:
        """Algorithm-1 page loop: dispatch each page to the hooks.

        With a tracer attached, each page emits its ``CacheHit`` or
        ``CacheMiss``, every batch an ``Evict`` and every insert an
        ``Insert``; untraced, each event site costs one ``emit is not
        None`` test.
        """
        tracer = self.tracer
        emit = tracer.emit if tracer.enabled else None
        req_id = self._req_seq
        self._req_seq = req_id + 1
        outcome = AccessOutcome()
        contains = self.contains
        on_hit = self._on_hit
        insert = self._insert
        evict_one = self._evict_one
        capacity = self.capacity_pages
        is_write = request.is_write
        flushes = outcome.flushes
        read_misses = outcome.read_miss_lpns
        hits = misses = inserted = 0
        clock = self._event_clock
        for lpn in request.pages():
            if contains(lpn):
                hits += 1
                if emit is not None:
                    clock += 1
                    emit(CacheHit(clock, req_id, lpn, self.name))
                on_hit(lpn, request)
            elif is_write:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, True))
                while self._occupancy >= capacity:
                    before = self._occupancy
                    n_flushes = len(flushes)
                    evict_one(outcome)
                    if self._occupancy >= before:
                        raise RuntimeError(
                            f"{type(self).__name__}._evict_one freed nothing"
                        )
                    if emit is not None:
                        for batch in flushes[n_flushes:]:
                            emit(Evict(clock, req_id, tuple(batch.lpns), self.name))
                insert(lpn, request, outcome)
                inserted += 1
                if emit is not None:
                    emit(Insert(clock, req_id, lpn, self.name))
            else:
                misses += 1
                if emit is not None:
                    clock += 1
                    emit(CacheMiss(clock, req_id, lpn, False))
                read_misses.append(lpn)
        self._event_clock = clock
        outcome.page_hits = hits
        outcome.page_misses = misses
        outcome.inserted_pages = inserted
        return outcome

    def occupancy(self) -> int:
        """Number of pages currently cached."""
        return self._occupancy
