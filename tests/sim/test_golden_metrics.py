"""Golden-metrics regression test.

Replays one small deterministic trace through the paper's three headline
policies on the full device model and compares the integer-derived
metrics (hit counts, eviction histogram, flash traffic) and the timing
results, bit-exact as ``float.hex`` strings, against a checked-in JSON
fixture.  The default device is pinned, and so are four GC variants
(cost-benefit victims, wear-aware victims, a separate GC write stream and
a DFTL cached mapping table) and the ``harsh`` fault profile, whose ECC
retry ladder lengthens host reads, and so are closed-loop replays of the
default device at queue depths 1 and 8.  Any behavioural change to a
policy, the controller, the FTL, GC, the fault path or a replay driver
shows up here as a diff — deliberate changes are re-pinned with::

    pytest tests/sim/test_golden_metrics.py --update-golden

The trace is generated with ``random.Random`` (no numpy) so the fixture
is identical on every platform and library version.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import pytest

import repro.sim.replay as replay_module
from repro.sim import replay_closed_loop
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController
from repro.traces.model import IORequest, OpType, Trace

GOLDEN_PATH = Path(__file__).parent / "golden_metrics.json"
POLICIES = ("lru", "vbbms", "reqblock")
SEED = 2022  # the paper's year, for want of a more natural constant
N_REQUESTS = 1500
CACHE_BYTES = 96 * 4096
#: Deliberately tiny device (1024 physical pages for a ~630-page write
#: footprint) so the replay exercises garbage collection and the GC
#: counters in the fixture are non-zero — the auto-sized device never
#: fills at this trace length.
SSD = SSDConfig(
    n_channels=2,
    chips_per_channel=1,
    planes_per_chip=2,
    blocks_per_plane=8,
    pages_per_block=32,
)


def _golden_trace() -> Trace:
    """Small mixed workload: hot rewrites + large extents + reads."""
    rng = random.Random(SEED)
    requests: List[IORequest] = []
    for i in range(N_REQUESTS):
        roll = rng.random()
        if roll < 0.45:  # hot small writes
            lpn, npages = rng.randrange(120), rng.randint(1, 4)
        elif roll < 0.75:  # colder large writes
            lpn, npages = rng.randrange(600), rng.randint(6, 32)
        else:  # reads over the same ranges
            lpn, npages = rng.randrange(600), rng.randint(1, 8)
        op = OpType.READ if roll >= 0.75 else OpType.WRITE
        requests.append(
            IORequest(time=float(i), op=op, lpn=lpn, npages=npages)
        )
    return Trace("golden", requests)


#: GC variants pinned next to the default device: each maps to the
#: ``ReplayConfig`` overrides it replays with.  Wear-aware victim choice
#: is a controller argument with no replay knob, so that variant swaps
#: the controller class the replay builds (see ``_metrics_fingerprint``).
VARIANTS: Dict[str, Dict[str, Any]] = {
    "cost_benefit": {"gc_victim_policy": "cost_benefit"},
    "wear_aware": {},
    # Same 1024 physical pages in 16-page blocks: on 8 blocks per plane
    # the GC threshold is one free block, which the GC stream's first
    # block would consume before any victim is migrated.
    "stream_separation": {
        "ssd": replace(
            SSD, gc_stream_separation=True, blocks_per_plane=16, pages_per_block=16
        )
    },
    # One 4 KB translation page of CMT for a two-page mapping table:
    # translation misses and dirty write-backs on every alternation.
    "dftl": {"mapping_cache_bytes": 4096},
    # Worn NAND: read retries and program/erase failures that retire
    # blocks until the device latches read-only mode.
    "harsh": {"fault_profile": "harsh", "fault_seed": 0},
}

#: Closed-loop queue depths pinned on the default device: one request
#: in flight (every request waits for the previous one) and a shallow
#: queue that still overlaps flushes.
QUEUE_DEPTHS = (1, 8)


def _metrics_fingerprint(
    policy: str, variant: str = "", queue_depth: Optional[int] = None
) -> Dict[str, object]:
    """The pinned, fully deterministic subset of ReplayMetrics; with a
    ``queue_depth``, of a closed-loop replay at that depth."""
    overrides = {"ssd": SSD, **VARIANTS.get(variant, {})}
    config = ReplayConfig(policy=policy, cache_bytes=CACHE_BYTES, **overrides)
    with pytest.MonkeyPatch.context() as mp:
        if variant == "wear_aware":
            mp.setattr(
                replay_module,
                "SSDController",
                functools.partial(SSDController, wear_aware_gc=True),
            )
        if queue_depth is None:
            metrics = replay_trace(_golden_trace(), config)
        else:
            metrics = replay_closed_loop(_golden_trace(), config, queue_depth)
    fingerprint: Dict[str, object] = {
        "page_hits": metrics.pages.hits,
        "page_total": metrics.pages.total,
        "hit_ratio": round(metrics.hit_ratio, 6),
        "read_hits": metrics.read_pages.hits,
        "write_hits": metrics.write_pages.hits,
        "evictions": metrics.eviction_count,
        "eviction_hist": {
            str(size): int(round(count))
            for size, count in sorted(metrics.eviction_hist.items())
        },
        "host_flush_pages": metrics.host_flush_pages,
        "gc_migrated_pages": metrics.gc_migrated_pages,
        "gc_erases": metrics.gc_erases,
        "flash_total_writes": metrics.flash_total_writes,
        # Timing, bit-exact: GC migration reads/programs and erases sit
        # on the plane timelines, so any reordering of their float
        # arithmetic moves these.
        "mean_response_ms": metrics.mean_response_ms.hex(),
        "p99_response_ms": metrics.response_percentile(0.99).hex(),
        "total_response_ms": metrics.total_response_ms.hex(),
        "mean_plane_utilisation": metrics.mean_plane_utilisation.hex(),
    }
    if "fault_profile" in overrides:
        d = metrics.durability
        assert d is not None and not metrics.aborted
        fingerprint.update(
            reads_with_retry=d.reads_with_retry,
            read_retries=d.read_retries,
            unrecoverable_reads=d.unrecoverable_reads,
            blocks_retired=d.blocks_retired,
            degraded=d.degraded,
        )
    return fingerprint


def _check_or_update(
    section: List[str], actual: Dict[str, object], update_golden: bool
) -> None:
    """Compare ``actual`` with the fixture entry at key path ``section``
    (``[]`` is the top level), or rewrite that entry under
    ``--update-golden``, keeping the rest of the file."""
    if update_golden:
        data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        node = data
        for key in section:
            node = node.setdefault(key, {})
        node.update(actual)
        GOLDEN_PATH.write_text(json.dumps(data, indent=2) + "\n")
        pytest.skip(f"rewrote {GOLDEN_PATH.name}")
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing; generate it with --update-golden"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    for key in section:
        golden = golden[key]
    where = "/".join(section)
    for policy in POLICIES:
        assert actual[policy] == golden[policy], (
            f"{where or 'default'} {policy} metrics diverged from the golden "
            "fixture.\n"
            f"  expected: {json.dumps(golden[policy], sort_keys=True)}\n"
            f"  actual:   {json.dumps(actual[policy], sort_keys=True)}\n"
            "If this change is intentional, re-pin with "
            "`pytest tests/sim/test_golden_metrics.py --update-golden`."
        )


def test_golden_metrics(update_golden: bool) -> None:
    actual = {policy: _metrics_fingerprint(policy) for policy in POLICIES}
    _check_or_update([], actual, update_golden)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_golden_gc_variants(variant: str, update_golden: bool) -> None:
    """Each variant replays to its pinned counts and timing."""
    actual = {policy: _metrics_fingerprint(policy, variant) for policy in POLICIES}
    assert all(fp["gc_migrated_pages"] for fp in actual.values()), (
        f"{variant}: the golden device no longer makes GC migrate pages"
    )
    if "fault_profile" in VARIANTS[variant]:
        assert all(fp["reads_with_retry"] for fp in actual.values()), (
            f"{variant}: the golden replay no longer retries any read"
        )
    _check_or_update(["variants", variant], actual, update_golden)


@pytest.mark.parametrize("queue_depth", QUEUE_DEPTHS, ids=lambda qd: f"qd{qd}")
def test_golden_closed_loop(queue_depth: int, update_golden: bool) -> None:
    """Closed-loop replays of the default device replay to their pinned
    counts and timing (response time includes host queueing)."""
    actual = {
        policy: _metrics_fingerprint(policy, queue_depth=queue_depth)
        for policy in POLICIES
    }
    _check_or_update(["closed_loop", f"qd{queue_depth}"], actual, update_golden)


def test_golden_trace_is_stable() -> None:
    """The trace builder itself must stay deterministic — otherwise a
    fixture mismatch would point at the simulator instead of the test."""
    a, b = _golden_trace(), _golden_trace()
    assert [
        (r.time, r.op, r.lpn, r.npages) for r in a
    ] == [(r.time, r.op, r.lpn, r.npages) for r in b]
