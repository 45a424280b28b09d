"""The benchmark's workloads and the replay each one times.

Each workload is a calibrated paper trace (``repro.traces.workloads``)
at a fixed scale, with its seed substituted from the command line, plus
the device it replays on.  The program under test only ever receives
the generated :class:`~repro.traces.model.Trace`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from statistics import median
from typing import List, Optional

from hostspeed import timed

from repro.cache.registry import PAPER_COMPARISON
from repro.sim.metrics import ReplayMetrics
from repro.sim.parallel import replay_sharded
from repro.sim.replay import ReplayConfig, replay_trace, sized_ssd_for
from repro.ssd.config import SSDConfig
from repro.traces.model import Trace
from repro.traces.synthetic import generate_trace
from repro.traces.workloads import PAPER_WORKLOADS, get_config, scaled_cache_bytes

POLICIES: List[str] = list(PAPER_COMPARISON)

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    """One named input set and the replay path it drives."""

    name: str
    #: Calibrated trace config in :data:`repro.traces.workloads.PAPER_WORKLOADS`.
    trace: str
    scale: float
    why: str
    #: Pinned device size; None sizes the device for the trace's footprint.
    blocks_per_plane: Optional[int] = None
    #: Segment count of a cache-only sharded replay; 0 = serial full model.
    shards: int = 0
    jobs: int = 1

    @property
    def default_seed(self) -> int:
        """The calibrated seed of the trace config."""
        return PAPER_WORKLOADS[self.trace].seed

    @property
    def sharded(self) -> bool:
        return self.shards > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="write-gc",
            trace="src1_2",
            scale=1 / 32,
            blocks_per_plane=8,
            why="74.6% writes on a device pinned small enough that GC "
            "relocates live pages: FTL write, GC and flush combining dominate",
        ),
        Workload(
            name="read-hot",
            trace="hm_1",
            scale=1 / 16,
            why="4.7% writes with a hot re-read set that mostly fits the "
            "cache: policy access and the metrics fold dominate, GC idles",
        ),
        Workload(
            name="shard-cache-only",
            trace="usr_0",
            scale=1 / 64,
            shards=4,
            jobs=2,
            why="small-write dominated cache-only replay in 4 segments on 2 "
            "workers: the only workload that measures fan-out and merge",
        ),
    )
}


@dataclass
class Setup:
    """The generated inputs of one run."""

    workload: Workload
    seed: int
    scale: float
    trace: Trace
    #: Device the full-model replays run on (None for cache-only).
    ssd: Optional[SSDConfig]
    cache_bytes: int
    #: Sum of request sizes: every replay must account exactly this many
    #: page hits plus misses.
    pages: int
    reads: int
    generate_s: float


def set_up(workload: Workload, seed: int, scale: float) -> Setup:
    """Synthesise the trace and size the device: what ``setup_s`` times."""
    config = replace(get_config(workload.trace, scale), seed=seed)
    t0 = time.perf_counter()
    trace = generate_trace(config)
    generate_s = time.perf_counter() - t0
    if workload.sharded:
        ssd = None
    elif workload.blocks_per_plane is not None:
        ssd = SSDConfig(blocks_per_plane=workload.blocks_per_plane)
    else:
        ssd = sized_ssd_for(trace)
    requests = trace.requests
    return Setup(
        workload=workload,
        seed=seed,
        scale=scale,
        trace=trace,
        ssd=ssd,
        cache_bytes=scaled_cache_bytes(16, scale),
        pages=sum(r.npages for r in requests),
        reads=sum(1 for r in requests if r.is_read),
        generate_s=generate_s,
    )


def timed_set_up(workload: Workload, seed: int, scale: float):
    """Set up ``SETUP_REPEATS`` times; returns the last set-up, and the
    set-up and trace-synthesis times of each in reference seconds."""
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with timed() as took:
            setup = set_up(workload, seed, scale)
        raw = time.perf_counter() - t0
        setup_s.append(took[0])
        generate_s.append(setup.generate_s * took[0] / raw)
    return setup, setup_s, generate_s


def replay_config(setup: Setup, policy: str) -> ReplayConfig:
    """The replay configuration every timed replay of ``policy`` uses."""
    return ReplayConfig(
        policy=policy,
        cache_bytes=setup.cache_bytes,
        ssd=setup.ssd,
        digest_evictions=True,
    )


def replay(setup: Setup, policy: str) -> ReplayMetrics:
    """One complete replay of the workload through ``policy``."""
    w = setup.workload
    config = replay_config(setup, policy)
    if w.sharded:
        return replay_sharded(
            setup.trace,
            config,
            n_shards=w.shards,
            jobs=w.jobs,
            start_method="fork",
            cache_only=True,
        )
    return replay_trace(setup.trace, config)


def med(values) -> float:
    return median(values) if values else 0.0
