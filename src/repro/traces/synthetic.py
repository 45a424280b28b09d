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
:class:`numpy.random.Generator`; traces are bit-reproducible.

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

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.traces.model import IORequest, OpType, Trace
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
        require_in_range(self.read_recent_prob, "read_recent_prob", 0.0, 1.0)
        require_in_range(self.read_small_bias, "read_small_bias", 0.0, 1.0)
        require_positive(self.mean_burst_len, "mean_burst_len")
        require_non_negative(self.intra_burst_gap_ms, "intra_burst_gap_ms")
        require_non_negative(self.inter_burst_gap_ms, "inter_burst_gap_ms")

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
        cfg = self.config
        rng = resolve_rng(rng, cfg.seed)
        n = cfg.n_requests

        # Pre-draw everything vectorisable; the loop only does the
        # state-dependent address selection.
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
        u_rewrite = rng.random(n)
        u_read_recent = rng.random(n)
        u_read_small = rng.random(n)
        u_misc = rng.random(n)
        stream_pick = rng.integers(0, cfg.n_streams, size=n)
        recent_pick = rng.integers(0, 1 << 30, size=n)

        # Arrival process: bursts of geometric length.  ``tolist`` hands
        # the simulator Python floats: a numpy.float64 request clock
        # would turn every timing-model and metrics update into numpy
        # scalar arithmetic and pickle through numpy's scalar reduce.
        times = self._arrival_times(rng, n).tolist()

        hot_base = 0
        large_base = cfg.hot_span_pages
        stream_cursors = [
            large_base + int(rng.integers(0, cfg.large_span_pages))
            for _ in range(cfg.n_streams)
        ]
        recent_large: Deque[Tuple[int, int]] = deque(maxlen=cfg.recent_large_window)
        recent_small: Deque[Tuple[int, int]] = deque(maxlen=cfg.recent_small_window)
        device_span = large_base + cfg.large_span_pages

        requests: List[IORequest] = []
        append = requests.append
        for i in range(n):
            if is_write[i]:
                if is_small[i]:
                    lpn, npages = self._small_write(
                        cfg,
                        hot_base,
                        slot_perm,
                        int(slot_ranks[i]),
                        int(small_sizes[i]),
                    )
                    recent_small.append((lpn, npages))
                else:
                    lpn, npages = self._large_write(
                        cfg,
                        large_base,
                        stream_cursors,
                        int(stream_pick[i]),
                        int(large_sizes[i]),
                        recent_large,
                        float(u_rewrite[i]),
                        int(recent_pick[i]),
                    )
                    recent_large.append((lpn, npages))
                append(IORequest(times[i], OpType.WRITE, lpn, npages))
            else:
                lpn, npages = self._read(
                    cfg,
                    recent_small,
                    recent_large,
                    device_span,
                    float(u_read_recent[i]),
                    float(u_read_small[i]),
                    float(u_misc[i]),
                    int(recent_pick[i]),
                    int(small_sizes[i]),
                )
                append(IORequest(times[i], OpType.READ, lpn, npages))
        return Trace(cfg.name, requests)

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

    @staticmethod
    def _small_write(
        cfg: SyntheticConfig,
        hot_base: int,
        slot_perm: np.ndarray,
        rank: int,
        size: int,
    ) -> Tuple[int, int]:
        slot = int(slot_perm[rank])
        lpn = hot_base + slot * cfg.small_size_max
        return lpn, size

    @staticmethod
    def _large_write(
        cfg: SyntheticConfig,
        large_base: int,
        cursors: List[int],
        stream: int,
        size: int,
        recent_large: Deque[Tuple[int, int]],
        u_rewrite: float,
        pick: int,
    ) -> Tuple[int, int]:
        if recent_large and u_rewrite < cfg.large_rewrite_prob:
            return recent_large[pick % len(recent_large)]
        lpn = cursors[stream]
        end = large_base + cfg.large_span_pages
        if lpn + size > end:
            lpn = large_base
        cursors[stream] = lpn + size
        return lpn, size

    @staticmethod
    def _read(
        cfg: SyntheticConfig,
        recent_small: Deque[Tuple[int, int]],
        recent_large: Deque[Tuple[int, int]],
        device_span: int,
        u_recent: float,
        u_small: float,
        u_frac: float,
        pick: int,
        fallback_size: int,
    ) -> Tuple[int, int]:
        if u_recent < cfg.read_recent_prob:
            if recent_small and (u_small < cfg.read_small_bias or not recent_large):
                lpn, npages = recent_small[pick % len(recent_small)]
                if npages > 1 and u_frac < cfg.small_partial_read_prob:
                    # Touch one page of the extent; siblings stay cold
                    # until a later read (exercises delta's protection).
                    return lpn + (pick % npages), 1
                return lpn, npages
            if recent_large:
                # Partial re-read of a large extent: this is what drives
                # Req-block's split-to-DRL machinery.
                lpn, npages = recent_large[pick % len(recent_large)]
                sub_len = max(1, int(u_frac * min(npages, cfg.small_size_max + 1)))
                offset = pick % max(1, npages - sub_len + 1)
                return lpn + offset, sub_len
        # Cold read anywhere on the volume.
        lpn = pick % device_span
        return lpn, max(1, fallback_size)


def generate_trace(config: SyntheticConfig) -> Trace:
    """Convenience wrapper: build the generator and produce the trace."""
    return SyntheticTraceGenerator(config).generate()
