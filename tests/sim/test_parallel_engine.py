"""Engine-level tests for ``repro.sim.parallel``.

Covers the shard protocol itself: deterministic segment planning,
per-shard seed derivation, index-ordered result collection, start
method resolution (including the spawn fallback where fork is
unavailable — the regression for sweep.py's old hard-coded ``fork``),
and the sweep facade's env-variable behaviour.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.sim import parallel
from repro.sim.parallel import (
    derive_shard_seed,
    plan_segments,
    replay_sharded,
    resolve_jobs,
    resolve_start_method,
    run_shards,
    shard_trace,
)
from repro.sim.replay import ReplayConfig
from repro.sim.sweep import SweepJob, run_jobs
from repro.traces.model import IORequest, OpType, Trace
from repro.traces.workloads import get_workload

BOTH_START_METHODS = pytest.mark.parametrize(
    "start_method",
    [
        m
        for m in ("fork", "spawn")
        if m in multiprocessing.get_all_start_methods()
    ],
)


# Workers must be module-level so they pickle under both start methods.
def _double(x):
    return 2 * x


def _describe(payload):
    index, value = payload
    return f"shard-{index}:{value * value}"


class TestResolveStartMethod:
    def test_prefers_fork_when_available(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "get_all_start_methods", lambda: ["fork", "spawn"]
        )
        assert resolve_start_method() == "fork"

    def test_falls_back_to_spawn_without_fork(self, monkeypatch):
        """The old sweep hard-coded 'fork'; Windows/macOS offer spawn only."""
        monkeypatch.setattr(
            parallel, "get_all_start_methods", lambda: ["spawn"]
        )
        assert resolve_start_method() == "spawn"

    def test_explicit_preference_wins(self):
        assert resolve_start_method("spawn") == "spawn"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert resolve_start_method() == "spawn"

    def test_unavailable_method_rejected(self, monkeypatch):
        monkeypatch.setattr(
            parallel, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ValueError, match="fork"):
            resolve_start_method("fork")


class TestResolveJobs:
    def test_clamped_to_tasks(self):
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 0) == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None, 100) == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0, 5)


class TestRunShards:
    def test_empty(self):
        assert run_shards(_double, []) == []

    def test_inline_uses_no_pool(self, monkeypatch):
        monkeypatch.setattr(
            parallel,
            "get_context",
            lambda *_a: pytest.fail("jobs=1 must not build a pool"),
        )
        assert run_shards(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_results_in_payload_order(self):
        payloads = [(i, i) for i in range(12)]
        got = run_shards(_describe, payloads, jobs=2)
        assert got == [f"shard-{i}:{i * i}" for i in range(12)]

    @BOTH_START_METHODS
    def test_identical_across_start_methods(self, start_method):
        """Satellite regression: the engine runs (and agrees) under both
        fork and spawn, not just the previously hard-coded fork."""
        payloads = list(range(6))
        inline = run_shards(_double, payloads, jobs=1)
        pooled = run_shards(_double, payloads, jobs=2, start_method=start_method)
        assert pooled == inline


class TestReplayShardedStartMethods:
    """Segments ship to workers as trace columns.  Rebuilt in forked
    workers or in spawned ones (a fresh interpreter that re-imports
    numpy and the package), the merged replay matches the inline one
    byte for byte."""

    @BOTH_START_METHODS
    @pytest.mark.parametrize("cache_only", [True, False], ids=["cache_only", "full"])
    def test_identical_to_inline(self, start_method, cache_only):
        trace = get_workload("ts_0", 1 / 256)
        config = ReplayConfig(
            policy="reqblock", cache_bytes=64 * 4096, digest_evictions=True
        )
        inline = replay_sharded(
            trace, config, n_shards=4, jobs=1, cache_only=cache_only
        )
        pooled = replay_sharded(
            trace,
            config,
            n_shards=4,
            jobs=2,
            start_method=start_method,
            cache_only=cache_only,
        )
        assert inline.eviction_digest
        assert pooled.summary() == inline.summary()
        assert pooled.eviction_digest == inline.eviction_digest


class TestPlanSegments:
    def test_balanced_contiguous_cover(self):
        plan = plan_segments(103, 4, base_seed=9)
        assert len(plan) == 4
        sizes = [s.n_requests for s in plan.shards]
        assert sum(sizes) == 103
        assert max(sizes) - min(sizes) <= 1
        assert plan.shards[0].start == 0 and plan.shards[-1].stop == 103
        for a, b in zip(plan.shards, plan.shards[1:]):
            assert a.stop == b.start

    def test_clamped_to_requests(self):
        plan = plan_segments(3, 8)
        assert len(plan) == 3
        assert all(s.n_requests == 1 for s in plan.shards)

    def test_empty_trace(self):
        assert len(plan_segments(0, 4)) == 0

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            plan_segments(10, 0)

    def test_plan_independent_of_everything_but_inputs(self):
        assert plan_segments(100, 3, 5) == plan_segments(100, 3, 5)
        assert plan_segments(100, 3, 5) != plan_segments(100, 3, 6)

    def test_shard_trace_slices(self):
        requests = [
            IORequest(time=float(i), op=OpType.WRITE, lpn=i, npages=1)
            for i in range(10)
        ]
        trace = Trace("t", requests)
        parts = shard_trace(trace, 3)
        assert [len(p) for p in parts] == [4, 3, 3]
        assert [r for p in parts for r in p.requests] == requests
        assert parts[0].name == "t[0:4]"


class TestDeriveShardSeed:
    def test_deterministic(self):
        assert derive_shard_seed(42, 3) == derive_shard_seed(42, 3)

    def test_distinct_across_shards_and_seeds(self):
        seeds = {derive_shard_seed(s, i) for s in range(4) for i in range(16)}
        assert len(seeds) == 4 * 16

    def test_in_plan(self):
        plan = plan_segments(10, 2, base_seed=7)
        assert [s.seed for s in plan.shards] == [
            derive_shard_seed(7, 0),
            derive_shard_seed(7, 1),
        ]


class TestSweepFacade:
    def test_sweep_env_forces_inline(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_PROCESSES", "1")
        monkeypatch.setattr(
            parallel,
            "get_context",
            lambda *_a: pytest.fail("REPRO_SWEEP_PROCESSES=1 must run inline"),
        )
        jobs = [
            SweepJob(
                workload="ts_0",
                policy="lru",
                cache_bytes=64 * 4096,
                scale=1 / 512,
                cache_only=True,
            )
        ]
        (m,) = run_jobs(jobs)
        assert m.policy_name == "lru"

    @BOTH_START_METHODS
    def test_sweep_identical_across_start_methods(self, start_method):
        jobs = [
            SweepJob(
                workload="ts_0",
                policy=p,
                cache_bytes=64 * 4096,
                scale=1 / 512,
                cache_only=True,
                replay_kwargs=(("digest_evictions", True),),
            )
            for p in ("lru", "reqblock")
        ]
        inline = run_jobs(jobs, processes=1)
        pooled = run_jobs(jobs, processes=2, start_method=start_method)
        for a, b in zip(inline, pooled):
            assert a.summary() == b.summary()
            assert a.eviction_digest == b.eviction_digest
