"""Every flash program has exactly one source, also under faults.

A host flush, a GC migration or a bad-block rescue copy: the three
counters must sum to the flash array's program count.  GC and the rescue
share one migration loop (``PageFTL.migrate_block``), each counting the
programs it caused, so this pins how the copies split between them.  The
fault profiles drive program failures (rescues), erase failures,
degraded mode and heavy GC on a small device.

``InvariantChecker`` enforces the same law during checked replays, at
every ``FlashWrite`` event and on ``close()``.
"""

from __future__ import annotations

import pytest

from repro.cache.registry import create_policy
from repro.faults.injector import FaultInjector
from repro.faults.profile import get_profile
from repro.obs.invariants import InvariantChecker, InvariantViolation
from repro.sim.replay import ReplayConfig, replay_trace
from repro.ssd.config import SSDConfig
from repro.ssd.controller import SSDController
from repro.traces.model import PAGE_SIZE_BYTES
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
