"""Motivation analysis — the statistics behind Figures 2 and 3.

The paper motivates Req-block by instrumenting an LRU-managed 16 MB
cache and showing

* **Fig. 2** — the CDFs over request size of (a) pages *inserted* into
  the cache and (b) page *hits*, demonstrating that small requests
  contribute ~80% of hits while occupying little space (Observation 1);
* **Fig. 3** — the fraction of cached pages belonging to *large*
  requests that are ever re-accessed: only 22.0%-37.2% (Observation 2).

This module replays a trace through an instrumented LRU cache that
remembers, for every cached page, the size of the write request that
inserted it, and accumulates exactly those statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cache.base import AccessOutcome
from repro.cache.lru import LRUCache
from repro.traces.model import Trace
from repro.traces.stats import mean_request_pages
from repro.utils.stats import CDFBuilder

__all__ = ["MotivationStats", "analyze_motivation"]


@dataclass
class MotivationStats:
    """Fig. 2/3 statistics for one trace."""

    trace_name: str
    cache_pages: int
    #: Small/large boundary in pages (mean write-request size, footnote 1).
    boundary_pages: float
    #: CDF of pages inserted, keyed by inserting request size (Fig. 2).
    insert_cdf: CDFBuilder = field(default_factory=CDFBuilder)
    #: CDF of page hits, keyed by the *inserting* request's size (Fig. 2).
    hit_cdf: CDFBuilder = field(default_factory=CDFBuilder)
    #: Distinct large-request pages that entered the cache (Fig. 3 denom).
    large_pages_cached: int = 0
    #: Of those, pages hit at least once before eviction (Fig. 3 numer).
    large_pages_hit: int = 0
    #: Same pair for small requests (not plotted, but informative).
    small_pages_cached: int = 0
    small_pages_hit: int = 0

    # ------------------------------------------------------------------
    @property
    def large_hit_fraction(self) -> float:
        """Fig. 3's bar: fraction of large-request pages re-accessed."""
        if self.large_pages_cached == 0:
            return 0.0
        return self.large_pages_hit / self.large_pages_cached

    @property
    def small_hit_fraction(self) -> float:
        """Fraction of small-request cached pages ever re-accessed."""
        if self.small_pages_cached == 0:
            return 0.0
        return self.small_pages_hit / self.small_pages_cached

    def hits_from_small_fraction(self) -> float:
        """Share of all hits landing on small-request pages (Obs. 1)."""
        sizes = [s for s in self.hit_cdf.support() if s <= self.boundary_pages]
        if not sizes or self.hit_cdf.total_weight == 0:
            return 0.0
        return self.hit_cdf.evaluate([max(sizes)])[0]

    def inserts_from_small_fraction(self) -> float:
        """Share of all inserted pages coming from small requests."""
        sizes = [s for s in self.insert_cdf.support() if s <= self.boundary_pages]
        if not sizes or self.insert_cdf.total_weight == 0:
            return 0.0
        return self.insert_cdf.evaluate([max(sizes)])[0]

    def cdf_rows(
        self, sizes: Sequence[int]
    ) -> List[Tuple[int, float, float]]:
        """(request size, insert CDF, hit CDF) rows for printing Fig. 2."""
        ins = self.insert_cdf.evaluate(sizes)
        hit = self.hit_cdf.evaluate(sizes)
        return [(s, i, h) for s, i, h in zip(sizes, ins, hit)]


class _InstrumentedLRU(LRUCache):
    """LRU that remembers the inserting request's size per cached page."""

    def __init__(self, capacity_pages: int) -> None:
        super().__init__(capacity_pages)
        self.insert_size: Dict[int, int] = {}  # lpn -> inserting req pages
        self.was_hit: Dict[int, bool] = {}  # lpn -> hit since insertion

    def _insert(self, lpn, request, outcome):  # type: ignore[override]
        super()._insert(lpn, request, outcome)
        self.insert_size[lpn] = request.npages
        self.was_hit[lpn] = False

    def _evict_one(self, outcome: AccessOutcome) -> None:
        super()._evict_one(outcome)
        # An LRU eviction flushes exactly one page: forget it.
        victim = outcome.flushes[-1].lpns[0]
        self.insert_size.pop(victim, None)
        self.was_hit.pop(victim, None)


def analyze_motivation(
    trace: Trace, cache_pages: int = 4096
) -> MotivationStats:
    """Replay ``trace`` through instrumented LRU; returns Fig. 2/3 stats.

    The default 4096-page cache is the paper's 16 MB configuration; pass
    a scaled value when the trace is scaled.
    """
    boundary = mean_request_pages(trace, writes_only=True)
    stats = MotivationStats(
        trace_name=trace.name, cache_pages=cache_pages, boundary_pages=boundary
    )
    cache = _InstrumentedLRU(cache_pages)

    for request in trace:
        for lpn in request.pages():
            cached_before = cache.contains(lpn)
            if cached_before:
                size = cache.insert_size[lpn]
                stats.hit_cdf.add(size)
                if not cache.was_hit[lpn]:
                    cache.was_hit[lpn] = True
                    if size > boundary:
                        stats.large_pages_hit += 1
                    else:
                        stats.small_pages_hit += 1
                cache._on_hit(lpn, request)
            elif request.is_write:
                outcome = AccessOutcome()
                while cache.occupancy() >= cache.capacity_pages:
                    cache._evict_one(outcome)
                cache._insert(lpn, request, outcome)
                stats.insert_cdf.add(request.npages)
                if request.npages > boundary:
                    stats.large_pages_cached += 1
                else:
                    stats.small_pages_cached += 1
    return stats
