"""Synthetic block-trace generator calibrated to the paper's workloads.

The real MSR-Cambridge / VDI traces are not redistributable, so the
reproduction generates synthetic traces whose *mechanistically relevant*
properties match Table 2 and Figures 2/3 of the paper:

* request count, write ratio and mean write size (Table 2);
* **size-dependent temporal locality** — small write requests repeatedly
  target a compact hot set of request-aligned "slots", while large write
  requests mostly stream sequentially through a cold region and are
  rarely re-accessed (Observations 1 and 2);
* partial re-reads of large extents, which exercise Req-block's
  split-to-DRL path;
* bursty arrivals, so channel queueing (and hence the response-time
  comparison of Figure 8) is meaningful.

The generator is a small Markov model driven by a seeded
:class:`numpy.random.Generator`; traces are bit-reproducible.  It makes
every random draw first and then resolves the request addresses as
columns, one request class at a time (docs/workload_calibration.md,
"How a trace is built").  The draws' calls, order and sizes pin every
trace, so none may change without re-recording every trace pin.

Address-space layout (in pages)::

    [0 ............ hot_span) [hot_span ....... hot_span + large_span)
        small-write slots           large-write streaming region

Small writes pick a slot by a Zipf(``zipf_theta``) rank through a fixed
random permutation (so hot slots are spatially scattered, as on a real
volume), and write the whole slot extent.  Large writes either continue
one of ``n_streams`` sequential streams or, with probability
``large_rewrite_prob``, rewrite a recently written large extent.  Reads
target recently written data with probability ``read_recent_prob``
(biased toward small-write data by ``read_small_bias``), otherwise they
hit a cold uniformly random address.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.traces.model import Trace
from repro.utils.rng import resolve_rng
from repro.utils.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
)

__all__ = ["SyntheticConfig", "SyntheticTraceGenerator", "generate_trace"]


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of one synthetic workload.

    Size parameters are in 4 KB pages.  ``small_size_max`` doubles as the
    slot stride, so repeated writes to a slot cover identical extents.
    """

    name: str
    n_requests: int
    seed: int
    write_ratio: float

    # -- request-size mixture ------------------------------------------------
    small_write_fraction: float  # fraction of WRITE requests that are small
    small_size_mean: float  # mean pages of a small write (geometric-ish)
    small_size_max: int  # small writes are 1..small_size_max pages
    large_size_mean: float  # mean pages of a large write
    large_size_max: int  # hard cap on large write size

    # -- locality structure --------------------------------------------------
    n_hot_slots: int  # number of small-write slots
    zipf_theta: float  # skew of slot popularity (0 = uniform)
    large_span_pages: int  # size of the streaming region
    n_streams: int = 4  # concurrent sequential write streams
    large_rewrite_prob: float = 0.15  # P(large write rewrites a recent extent)
    recent_large_window: int = 64  # how many recent large extents to remember

    # -- read behaviour -------------------------------------------------------
    read_recent_prob: float = 0.7  # P(read targets recently written data)
    read_small_bias: float = 0.8  # among those, P(target small-write slot)
    recent_small_window: int = 512
    #: P(a small-extent read touches a single page rather than the whole
    #: extent).  Partial re-access is what makes whole-block promotion
    #: (delta > 1) pay off: the untouched sibling pages ride along into
    #: SRL and hit later (the paper's Fig. 7 effect).
    small_partial_read_prob: float = 0.5

    # -- arrival process -------------------------------------------------------
    mean_burst_len: float = 8.0  # requests per burst
    intra_burst_gap_ms: float = 0.05
    inter_burst_gap_ms: float = 2.0
    #: When set, ``inter_burst_gap_ms`` is overridden so the long-run
    #: page arrival rate approximates this value.  The paper's device
    #: programs ~7.8 pages/ms across its 16 chips; targeting ~60% of
    #: that keeps channels loaded (so eviction efficiency shows up in
    #: response times, Fig. 8) without unbounded queueing.
    target_pages_per_ms: Optional[float] = None

    def __post_init__(self) -> None:
        require_positive(self.n_requests, "n_requests")
        require_in_range(self.write_ratio, "write_ratio", 0.0, 1.0)
        require_in_range(self.small_write_fraction, "small_write_fraction", 0.0, 1.0)
        require_positive(self.small_size_mean, "small_size_mean")
        require_positive(self.small_size_max, "small_size_max")
        require_positive(self.large_size_mean, "large_size_mean")
        require_positive(self.large_size_max, "large_size_max")
        if self.large_size_mean <= self.small_size_max:
            raise ValueError(
                "large_size_mean must exceed small_size_max so that the "
                "small/large size classes are actually separated"
            )
        require_positive(self.n_hot_slots, "n_hot_slots")
        require_non_negative(self.zipf_theta, "zipf_theta")
        require_positive(self.large_span_pages, "large_span_pages")
        require_positive(self.n_streams, "n_streams")
        require_in_range(self.large_rewrite_prob, "large_rewrite_prob", 0.0, 1.0)
        require_non_negative(self.recent_large_window, "recent_large_window")
        require_in_range(self.read_recent_prob, "read_recent_prob", 0.0, 1.0)
        require_in_range(self.read_small_bias, "read_small_bias", 0.0, 1.0)
        require_non_negative(self.recent_small_window, "recent_small_window")
        require_in_range(
            self.small_partial_read_prob, "small_partial_read_prob", 0.0, 1.0
        )
        # A burst ends after each request with probability 1/mean_burst_len.
        if not self.mean_burst_len >= 1:
            raise ValueError(
                f"mean_burst_len must be at least 1, got {self.mean_burst_len!r}"
            )
        require_non_negative(self.intra_burst_gap_ms, "intra_burst_gap_ms")
        require_non_negative(self.inter_burst_gap_ms, "inter_burst_gap_ms")
        if self.target_pages_per_ms is not None:
            require_positive(self.target_pages_per_ms, "target_pages_per_ms")

    # ------------------------------------------------------------------
    @property
    def mean_read_pages(self) -> float:
        """Rough expected pages per read request (for rate calibration):
        reads mostly target small-write extents or small sub-extents of
        large writes, so their mean tracks the small-write size."""
        return self.small_size_mean + 0.5

    @property
    def mean_request_pages(self) -> float:
        """Expected pages per request (reads and writes combined)."""
        w = self.write_ratio
        return w * self.mean_write_pages + (1.0 - w) * self.mean_read_pages

    @property
    def effective_inter_burst_gap_ms(self) -> float:
        """The inter-burst gap actually used by the generator.

        With ``target_pages_per_ms`` set, solves
        ``rate = burst_len * pages_per_req / (burst_len * intra + inter)``
        for ``inter`` (clamped non-negative).
        """
        if self.target_pages_per_ms is None:
            return self.inter_burst_gap_ms
        pages_per_burst = self.mean_burst_len * self.mean_request_pages
        cycle = pages_per_burst / self.target_pages_per_ms
        return max(0.0, cycle - self.mean_burst_len * self.intra_burst_gap_ms)

    @property
    def hot_span_pages(self) -> int:
        """Pages reserved for the slot region (slots are stride-aligned)."""
        return self.n_hot_slots * self.small_size_max

    @property
    def mean_write_pages(self) -> float:
        """Expected pages per write request under this mixture."""
        return (
            self.small_write_fraction * self.small_size_mean
            + (1.0 - self.small_write_fraction) * self.large_size_mean
        )

    def scaled(self, factor: float) -> "SyntheticConfig":
        """A copy with request count and footprint scaled by ``factor``.

        Request sizes and probabilities are preserved, so the workload's
        per-request character is unchanged; only its length and address
        footprint shrink/grow together (keeping cache:footprint ratios
        meaningful when the DRAM cache is scaled by the same factor).
        """
        require_positive(factor, "factor")
        return replace(
            self,
            n_requests=max(1, int(round(self.n_requests * factor))),
            n_hot_slots=max(8, int(round(self.n_hot_slots * factor))),
            large_span_pages=max(1024, int(round(self.large_span_pages * factor))),
        )


#: Reads resolved per :func:`_read_extents` call: bounded so its
#: temporaries stay small next to the trace.
_READS_PER_CHUNK = 1 << 13


def _zipf_probabilities(n: int, theta: float) -> np.ndarray:
    """Normalised generalized-Zipf weights 1/k^theta for k = 1..n."""
    ranks = np.arange(1, n + 1, dtype=np.float64)
    w = ranks**-theta
    return w / w.sum()


class SyntheticTraceGenerator:
    """Generates a :class:`Trace` from a :class:`SyntheticConfig`.

    Deterministic for a given config (seed included), which the
    replay-determinism tests rely on.
    """

    def __init__(self, config: SyntheticConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def generate(self, rng: "np.random.Generator | None" = None) -> Trace:
        """Produce the trace (deterministic for this config).

        An explicit ``rng`` overrides the config's seed (the seeding
        convention in CONTRIBUTING.md); callers sharing a Generator
        must account for the draws this consumes.
        """
        # Lazy import: repro.traces.io imports this module.
        from repro.traces.io import trace_from_columns

        cfg = self.config
        rng = resolve_rng(rng, cfg.seed)
        n = cfg.n_requests

        # Every draw is made up front.  The calls, their order and their
        # sizes pin every trace (docs/workload_calibration.md); a uniform
        # that is only ever compared is kept as its comparison.
        is_write = rng.random(n) < cfg.write_ratio
        is_small = rng.random(n) < cfg.small_write_fraction
        # Small sizes: shifted geometric clipped to [1, small_size_max].
        p_small = 1.0 / cfg.small_size_mean
        small_sizes = np.minimum(
            rng.geometric(p=min(1.0, p_small), size=n), cfg.small_size_max
        )
        # Large sizes: shifted geometric above the small cap.
        large_extra_mean = max(1.0, cfg.large_size_mean - cfg.small_size_max)
        large_sizes = np.minimum(
            cfg.small_size_max + rng.geometric(p=1.0 / large_extra_mean, size=n),
            cfg.large_size_max,
        )
        slot_probs = _zipf_probabilities(cfg.n_hot_slots, cfg.zipf_theta)
        slot_ranks = rng.choice(cfg.n_hot_slots, size=n, p=slot_probs)
        slot_perm = rng.permutation(cfg.n_hot_slots)
        rewrite = rng.random(n) < cfg.large_rewrite_prob
        read_recent = rng.random(n) < cfg.read_recent_prob
        read_small = rng.random(n) < cfg.read_small_bias
        u_frac = rng.random(n)
        stream_pick = rng.integers(0, cfg.n_streams, size=n)
        pick = rng.integers(0, 1 << 30, size=n)
        times = self._arrival_times(rng, n)
        cursors = [
            cfg.hot_span_pages + int(rng.integers(0, cfg.large_span_pages))
            for _ in range(cfg.n_streams)
        ]

        # The address columns, one request class at a time.  Each draw
        # array is dropped once the last class that reads it is resolved.
        lpn = np.empty(n, dtype=np.int64)
        npages = np.empty(n, dtype=np.int64)
        # Small writes: the whole extent of the slot their rank maps to.
        small = np.flatnonzero(is_write & is_small)
        lpn[small] = slot_perm[slot_ranks[small]] * cfg.small_size_max
        npages[small] = small_sizes[small]
        del slot_ranks, slot_perm
        large = np.flatnonzero(is_write & ~is_small)
        del is_small
        lpn[large], npages[large] = _large_extents(
            cfg,
            cursors,
            rewrite[large],
            pick[large],
            stream_pick[large],
            large_sizes[large],
        )
        del rewrite, stream_pick, large_sizes
        reads = np.flatnonzero(~is_write)
        for start in range(0, len(reads), _READS_PER_CHUNK):
            at = reads[start : start + _READS_PER_CHUNK]
            lpn[at], npages[at] = _read_extents(
                cfg,
                small,
                large,
                at,
                lpn,
                npages,
                read_recent[at],
                read_small[at],
                u_frac[at],
                pick[at],
                small_sizes[at],
            )
        del small, large, reads, read_recent, read_small, u_frac, pick, small_sizes
        return trace_from_columns(
            cfg.name, {"time": times, "op": is_write, "lpn": lpn, "npages": npages}
        )

    # ------------------------------------------------------------------
    def _arrival_times(self, rng: np.random.Generator, n: int) -> np.ndarray:
        cfg = self.config
        burst_end = rng.random(n) < (1.0 / cfg.mean_burst_len)
        gaps = np.where(
            burst_end,
            rng.exponential(cfg.effective_inter_burst_gap_ms, size=n),
            cfg.intra_burst_gap_ms,
        )
        gaps[0] = 0.0
        return np.cumsum(gaps)


def _large_extents(
    cfg: SyntheticConfig,
    cursors: List[int],
    rewrite: np.ndarray,
    pick: np.ndarray,
    stream: np.ndarray,
    size: np.ndarray,
) -> Tuple[List[int], List[int]]:
    """LPN and size of each large write, in trace order.

    Large write ``j`` sees the last ``held = min(j, recent_large_window)``
    large writes before it.  If it drew a rewrite and ``held > 0``, it
    copies the extent of large write ``j - held + pick % held``.
    Otherwise it takes its stream's cursor, or the region start when
    the extent would overrun the region, and advances the cursor past
    itself.
    """
    base = cfg.hot_span_pages
    end = base + cfg.large_span_pages
    order = np.arange(len(size))
    held = np.minimum(order, cfg.recent_large_window)
    copied = np.where(
        rewrite & (held > 0), order - held + pick % np.maximum(held, 1), -1
    )
    lpns: List[int] = []
    sizes: List[int] = []
    for src, s, z in zip(copied.tolist(), stream.tolist(), size.tolist()):
        if src >= 0:
            lpn, z = lpns[src], sizes[src]
        else:
            lpn = cursors[s]
            if lpn + z > end:
                lpn = base
            cursors[s] = lpn + z
        lpns.append(lpn)
        sizes.append(z)
    return lpns, sizes


def _read_extents(
    cfg: SyntheticConfig,
    small: np.ndarray,
    large: np.ndarray,
    reads: np.ndarray,
    lpn: np.ndarray,
    npages: np.ndarray,
    recent: np.ndarray,
    prefer_small: np.ndarray,
    u_frac: np.ndarray,
    pick: np.ndarray,
    cold_size: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """LPN and size of each read, given the resolved writes.

    ``small``, ``large`` and ``reads`` are the trace positions of the
    small writes, the large writes and the reads; ``lpn``/``npages``
    already hold both write classes.  A read sees each window as it
    stood before it: of the ``before`` writes of a class that precede
    it, the window holds the last ``held = min(before, window)``, and
    the read takes entry ``pick % held`` of them.
    """
    small_before = np.searchsorted(small, reads)
    large_before = np.searchsorted(large, reads)
    small_held = np.minimum(small_before, cfg.recent_small_window)
    large_held = np.minimum(large_before, cfg.recent_large_window)
    from_small = recent & (small_held > 0) & (prefer_small | (large_held == 0))
    from_large = recent & ~from_small & (large_held > 0)

    # Cold read anywhere on the volume (geometric sizes are >= 1).
    out_lpn = pick % (cfg.hot_span_pages + cfg.large_span_pages)
    out_npages = cold_size

    # A recent small-write extent, or one page of it: siblings stay
    # cold until a later read (exercises delta's protection).
    held, p = small_held[from_small], pick[from_small]
    src = small[small_before[from_small] - held + p % held]
    ext_lpn, ext_npages = lpn[src], npages[src]
    one_page = (ext_npages > 1) & (u_frac[from_small] < cfg.small_partial_read_prob)
    out_lpn[from_small] = np.where(one_page, ext_lpn + p % ext_npages, ext_lpn)
    out_npages[from_small] = np.where(one_page, 1, ext_npages)

    # Partial re-read of a recent large extent: this is what drives
    # Req-block's split-to-DRL machinery.
    held, p = large_held[from_large], pick[from_large]
    src = large[large_before[from_large] - held + p % held]
    ext_lpn, ext_npages = lpn[src], npages[src]
    longest = np.minimum(ext_npages, cfg.small_size_max + 1)
    sub_len = np.maximum(1, (u_frac[from_large] * longest).astype(np.int64))
    out_lpn[from_large] = ext_lpn + p % np.maximum(1, ext_npages - sub_len + 1)
    out_npages[from_large] = sub_len
    return out_lpn, out_npages


def generate_trace(config: SyntheticConfig) -> Trace:
    """Convenience wrapper: build the generator and produce the trace."""
    return SyntheticTraceGenerator(config).generate()
