"""Classic micro-pattern workloads: sequential, random, zipf, mixed.

The six paper workloads model real volumes; these generators produce
the *textbook* access patterns papers use for microbenchmarks and
sanity checks (a pure sequential writer should make BPLRU look good, a
uniform-random writer should defeat every policy equally, ...).  Each
returns an ordinary :class:`Trace` and is fully determined by its
arguments.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.traces.model import IORequest, OpType, Trace
from repro.utils.rng import resolve_rng
from repro.utils.validation import require_in_range, require_positive

__all__ = [
    "sequential_writes",
    "random_writes",
    "zipf_writes",
    "mixed_pattern",
]

_GAP_MS = 0.5


def _times(n: int) -> List[float]:
    # Python floats, not numpy scalars: simulated time is a plain float.
    return (np.arange(n, dtype=np.float64) * _GAP_MS).tolist()


def sequential_writes(
    n_requests: int,
    req_pages: int = 8,
    start_lpn: int = 0,
    name: str = "seq-writes",
) -> Trace:
    """Back-to-back sequential writes (the FAB/BPLRU sweet spot)."""
    require_positive(n_requests, "n_requests")
    require_positive(req_pages, "req_pages")
    times = _times(n_requests)
    reqs = [
        IORequest(times[i], OpType.WRITE, start_lpn + i * req_pages, req_pages)
        for i in range(n_requests)
    ]
    return Trace(name, reqs)


def random_writes(
    n_requests: int,
    span_pages: int,
    req_pages: int = 1,
    seed: int = 0,
    name: str = "rand-writes",
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Uniform random single/multi-page writes over ``span_pages``."""
    require_positive(n_requests, "n_requests")
    require_positive(span_pages, "span_pages")
    rng = resolve_rng(rng, seed)
    lpns = rng.integers(0, max(1, span_pages - req_pages + 1), size=n_requests)
    times = _times(n_requests)
    reqs = [
        IORequest(times[i], OpType.WRITE, int(lpns[i]), req_pages)
        for i in range(n_requests)
    ]
    return Trace(name, reqs)


def zipf_writes(
    n_requests: int,
    n_objects: int,
    theta: float = 1.0,
    req_pages: int = 1,
    seed: int = 0,
    name: str = "zipf-writes",
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """Zipf-popular writes over ``n_objects`` aligned extents."""
    require_positive(n_requests, "n_requests")
    require_positive(n_objects, "n_objects")
    require_in_range(theta, "theta", 0.0, 4.0)
    rng = resolve_rng(rng, seed)
    ranks = np.arange(1, n_objects + 1, dtype=np.float64)
    w = ranks**-theta
    w /= w.sum()
    objs = rng.choice(n_objects, size=n_requests, p=w)
    perm = rng.permutation(n_objects)
    times = _times(n_requests)
    reqs = [
        IORequest(times[i], OpType.WRITE, int(perm[objs[i]]) * req_pages, req_pages)
        for i in range(n_requests)
    ]
    return Trace(name, reqs)


def mixed_pattern(
    n_requests: int,
    hot_objects: int = 64,
    hot_pages: int = 2,
    stream_pages: int = 32,
    hot_fraction: float = 0.6,
    read_fraction: float = 0.3,
    seed: int = 0,
    name: str = "mixed",
    rng: Optional[np.random.Generator] = None,
) -> Trace:
    """The paper's motif in miniature: hot small writes + cold streams.

    ``hot_fraction`` of writes hit a Zipf-hot set of small extents; the
    rest stream sequentially.  ``read_fraction`` of requests re-read a
    recent hot extent.  Useful as a deterministic fixture where the full
    synthetic generator would be overkill.
    """
    require_positive(n_requests, "n_requests")
    require_in_range(hot_fraction, "hot_fraction", 0.0, 1.0)
    require_in_range(read_fraction, "read_fraction", 0.0, 1.0)
    rng = resolve_rng(rng, seed)
    ranks = np.arange(1, hot_objects + 1, dtype=np.float64)
    w = ranks**-1.1
    w /= w.sum()
    hot_base = 0
    stream_base = hot_objects * hot_pages
    cursor = stream_base
    times = _times(n_requests)
    reqs: List[IORequest] = []
    recent: List[int] = []
    for i in range(n_requests):
        if rng.random() < read_fraction and recent:
            lpn = recent[int(rng.integers(0, len(recent)))]
            reqs.append(IORequest(times[i], OpType.READ, lpn, hot_pages))
        elif rng.random() < hot_fraction:
            obj = int(rng.choice(hot_objects, p=w))
            lpn = hot_base + obj * hot_pages
            reqs.append(IORequest(times[i], OpType.WRITE, lpn, hot_pages))
            recent.append(lpn)
            if len(recent) > 128:
                recent.pop(0)
        else:
            reqs.append(IORequest(times[i], OpType.WRITE, cursor, stream_pages))
            cursor += stream_pages
    return Trace(name, reqs)
