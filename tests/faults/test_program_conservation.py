"""Every flash program has exactly one source, also under faults.

A host flush, a GC migration or a bad-block rescue copy: the three
counters must sum to the flash array's program count.  GC and the rescue
share one migration loop (``PageFTL.migrate_block``), each counting the
programs it caused, so this pins how the copies split between them.  The
fault profiles drive program failures (rescues), erase failures,
degraded mode and heavy GC on a small device.  A fault-free case fills
a device with a separate GC stream until GC runs out of space part-way
through a migration; the programs it made before raising must still be
counted.

``InvariantChecker`` enforces the same law during checked replays, at
every ``FlashWrite`` event and on ``close()``.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.registry import create_policy
from repro.faults.injector import FaultInjector
from repro.faults.profile import get_profile
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController
from repro.traces.model import PAGE_SIZE_BYTES, IORequest, OpType, Trace
from repro.traces.workloads import get_workload, scaled_cache_bytes

SCALE = 1 / 128
SEEDS = (0, 1, 2)


@pytest.mark.parametrize("profile", ["harsh", "wearout"])
def test_programs_sum_to_host_gc_and_rescue(profile):
    trace = get_workload("src1_2", SCALE)
    migrated = rescued = 0
    for seed in SEEDS:
        faults = FaultInjector(get_profile(profile), seed=seed)
        controller = SSDController(
            # 8 blocks per plane: small enough that GC migrates live pages.
            SSDConfig(blocks_per_plane=8),
            create_policy(
                "reqblock", scaled_cache_bytes(16, SCALE) // PAGE_SIZE_BYTES
            ),
            faults=faults,
        )
        for request in trace:
            controller.submit(request)
        ftl, gc = controller.ftl, controller.gc
        assert controller.flash.total_programs == (
            ftl.stats.host_programs + gc.stats.pages_migrated + faults.rescued_pages
        ), f"{profile} seed {seed}: programs without a source"
        migrated += gc.stats.pages_migrated
        rescued += faults.rescued_pages
    # Both callers of the migration loop contributed.
    assert migrated > 0 and rescued > 0


#: 96 physical pages against a ~68-page footprint, GC-migrated pages in
#: their own write stream: rewrites fill the device until GC, part-way
#: through a migration, finds no free block and the device goes
#: read-only.
SEPARATED = SSDConfig(
    n_channels=2,
    chips_per_channel=1,
    planes_per_chip=1,
    blocks_per_plane=12,
    pages_per_block=4,
    gc_stream_separation=True,
)
FILL_SEEDS = range(10)


def _fill_trace(seed: int) -> Trace:
    """6,000 one- or two-page writes, 0.3 ms apart, over LPNs [0, 68)."""
    rng = random.Random(seed)
    return Trace(
        f"fill-{seed}",
        [
            IORequest(0.3 * i, OpType.WRITE, rng.randrange(67), rng.randint(1, 2))
            for i in range(6000)
        ],
    )


def test_gc_programs_counted_when_gc_runs_out_of_space():
    """GC that raises ``FlashOutOfSpace`` after migrating pages keeps
    them in the program count, and a profiled replay reports the same
    summary as a plain one."""
    read_only = 0
    for seed in FILL_SEEDS:
        trace = _fill_trace(seed)
        controller = SSDController(SEPARATED, create_policy("lru", 4))
        for request in trace:
            controller.submit(request)
        read_only += controller.degraded.active
        ftl, gc = controller.ftl, controller.gc
        assert controller.flash.total_programs == (
            ftl.stats.host_programs + gc.stats.pages_migrated
        ), f"seed {seed}: programs without a source"
        config = ReplayConfig(
            policy="lru", cache_bytes=4 * PAGE_SIZE_BYTES, ssd=SEPARATED
        )
        plain = replay_trace(trace, config)
        config.profile = True
        profiled = replay_trace(trace, config)
        assert profiled.summary() == plain.summary(), f"seed {seed}"
    # Most of these devices fill up and go read-only.
    assert read_only >= len(FILL_SEEDS) // 2


#: Requests of the checked replays (the checker makes them ~20x slower).
CHECKED_REQUESTS = 4000


def test_checked_replays_stay_silent():
    """Checked ``harsh`` and ``wearout`` replays keep the law at every
    host program, through GC migrations and bad-block rescues."""
    trace = get_workload("src1_2", SCALE).head(CHECKED_REQUESTS)
    migrated = rescued = 0
    for profile in ("harsh", "wearout"):
        metrics = replay_trace(
            trace,
            ReplayConfig(
                policy="reqblock",
                cache_bytes=scaled_cache_bytes(16, SCALE),
                ssd=SSDConfig(blocks_per_plane=8),
                fault_profile=profile,
                check_invariants=True,
                invariant_check_interval=64,
            ),
        )
        assert not metrics.aborted
        migrated += metrics.gc_migrated_pages
        rescued += metrics.durability.extra["rescued_pages"]
    assert migrated > 0 and rescued > 0


def test_checker_names_the_law_on_a_perturbed_count():
    checker = InvariantChecker(check_interval=64)
    faults = FaultInjector(get_profile("harsh"), seed=0)
    policy = create_policy("reqblock", scaled_cache_bytes(16, SCALE) // PAGE_SIZE_BYTES)
    controller = SSDController(
        SSDConfig(blocks_per_plane=8), policy, faults=faults, tracer=checker
    )
    checker.attach(policy=policy, controller=controller)
    trace = get_workload("src1_2", SCALE)
    for request in trace.requests[:1000]:
        controller.submit(request)
    checker.close()
    controller.flash.total_programs += 1
    with pytest.raises(InvariantViolation, match="program conservation"):
        checker.close()
    # The replay itself trips it at the next host program.
    with pytest.raises(InvariantViolation, match="program conservation") as info:
        for request in trace.requests[1000:]:
            controller.submit(request)
    assert info.value.event.kind == "flash_write"
