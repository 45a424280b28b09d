"""Motivation analysis — the statistics behind Figures 2 and 3.

The paper motivates Req-block by instrumenting an LRU-managed 16 MB
cache and showing

* **Fig. 2** — the CDFs over request size of (a) pages *inserted* into
  the cache and (b) page *hits*, demonstrating that small requests
  contribute ~80% of hits while occupying little space (Observation 1);
* **Fig. 3** — the fraction of cached pages belonging to *large*
  requests that are ever re-accessed: only 22.0%-37.2% (Observation 2).

This module replays a trace through a page-level LRU write buffer (an
``OrderedDict``, as in :mod:`repro.cache.lru`) that remembers, for
every cached page, the size of the write request that inserted it, and
accumulates exactly those statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

from repro.traces.model import Trace
from repro.traces.stats import mean_request_pages
from repro.utils.stats import CDFBuilder
from repro.utils.validation import require_positive

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


def analyze_motivation(
    trace: Trace, cache_pages: int = 4096
) -> MotivationStats:
    """Replay ``trace`` through page-level LRU; returns Fig. 2/3 stats.

    The default 4096-page cache is the paper's 16 MB configuration; pass
    a scaled value when the trace is scaled.
    """
    boundary = mean_request_pages(trace, writes_only=True)
    stats = MotivationStats(
        trace_name=trace.name, cache_pages=cache_pages, boundary_pages=boundary
    )
    require_positive(cache_pages, "cache_pages")
    # The LRU cache: cached LPN -> pages of the write request that
    # inserted it, least recently used first.
    insert_size: "OrderedDict[int, int]" = OrderedDict()
    # Cached LPNs hit since their insertion.
    was_hit: Set[int] = set()

    for request in trace:
        npages = request.npages
        for lpn in request.pages():
            size = insert_size.get(lpn)
            if size is not None:
                stats.hit_cdf.add(size)
                if lpn not in was_hit:
                    was_hit.add(lpn)
                    if size > boundary:
                        stats.large_pages_hit += 1
                    else:
                        stats.small_pages_hit += 1
                insert_size.move_to_end(lpn)
            elif request.is_write:
                while len(insert_size) >= cache_pages:
                    # Each eviction flushes one page: forget it.
                    was_hit.discard(insert_size.popitem(last=False)[0])
                insert_size[lpn] = npages
                stats.insert_cdf.add(npages)
                if npages > boundary:
                    stats.large_pages_cached += 1
                else:
                    stats.small_pages_cached += 1
    return stats
