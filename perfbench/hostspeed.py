"""Host-speed calibration for the benchmark's timings.

On a shared host the simulator's speed drifts by tens of percent over
seconds to minutes, with other tenants' load, so even the fastest replay
of a run can be slow.  The benchmark therefore reports host times in
*reference-host seconds*.  A probe pass is fixed, benchmark-owned Python
work that is as memory-bound as the simulator: dict inserts and lookups
over random keys.  An interval's wall time, less the probe passes run
inside it, is divided by the passes' mean slowdown against
``REFERENCE_PASS_S``.  The probe runs none of the simulator's code, so a
change to the simulator moves reference times exactly as it moves raw
ones.

The probe runs every ``PERIOD_S`` inside the interval, from a
``SIGALRM`` handler, which tracks the drift best.  An interval whose
work runs in worker processes is probed only at its ends instead: a
probe inside it would time this process competing with its workers.
"""

from __future__ import annotations

import random
import signal
import time
from contextlib import contextmanager
from typing import Callable, Iterator, List

#: One probe pass on the host the benchmark was calibrated on, at its
#: fastest.  Times are reported as if every pass took this long.
REFERENCE_PASS_S = 0.0020
#: How often the probe runs inside a timed interval.
PERIOD_S = 0.05

_KEYS = random.Random(20220829).sample(range(1 << 30), 12_000)


def probe_pass() -> float:
    """Run one probe pass; returns its wall time."""
    keys = _KEYS
    t0 = time.perf_counter()
    table = {}
    for k in keys:
        table[k] = k
    for k in keys:
        table.get(k + 1)
        table[k]
    return time.perf_counter() - t0


def _endpoint_probe() -> float:
    """Median of five passes, so a stall shorter than a pass is ignored."""
    return sorted(probe_pass() for _ in range(5))[2]


@contextmanager
def every_period(tick: Callable[[], None]) -> Iterator[None]:
    """Call ``tick`` every ``PERIOD_S`` while the block runs."""
    previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: tick())
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def timed(sample: bool = True) -> Iterator[List[float]]:
    """Time the ``with`` block; the yielded list receives its duration
    in reference seconds when the block ends.  With ``sample`` the
    probe runs inside the block, otherwise only at its ends."""
    samples: List[float] = []
    out: List[float] = []
    if not sample:
        samples.append(_endpoint_probe())
    t0 = time.perf_counter()
    if sample:
        with every_period(lambda: samples.append(probe_pass())):
            yield out
    else:
        yield out
    raw = time.perf_counter() - t0
    probed = sum(samples) if sample else 0.0
    if not sample or not samples:
        samples.append(_endpoint_probe())
    out.append((raw - probed) * len(samples) * REFERENCE_PASS_S / sum(samples))
