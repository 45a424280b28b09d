"""Integration tests: metrics registry + sampler + profiler in replays."""

from __future__ import annotations

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim import replay_closed_loop
from repro.sim.replay import ReplayConfig, replay_cache_only, replay_trace
from repro.traces.model import Trace

CACHE_BYTES = 64 * 4096


def _cfg(**kwargs) -> ReplayConfig:
    return ReplayConfig(policy="reqblock", cache_bytes=CACHE_BYTES, **kwargs)


class TestReplaySampling:
    def test_series_populated_and_consistent(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_trace(tiny_trace, _cfg(metrics=reg, sample_interval=500))
        assert len(m.metrics_series) >= 2
        last = m.metrics_series[-1]
        assert last["index"] == len(tiny_trace) - 1
        # Instruments agree with the ReplayMetrics aggregates.
        assert last["cache.page_hits_total"] == m.pages.hits
        assert last["cache.page_misses_total"] == m.pages.total - m.pages.hits
        assert last["host.requests_total"] == m.n_requests
        assert last["cache.evictions_total"] == m.eviction_count
        assert last["ssd.flash.programs_total"] == m.flash_total_writes
        assert last["ssd.gc.pages_migrated_total"] == m.gc_migrated_pages
        # Collector-backed gauges are present.
        assert "cache.occupancy_pages" in last
        assert "cache.list.irl_pages" in last  # Req-block per-list gauges
        assert "ssd.ftl.mapped_pages" in last

    def test_snapshots_monotone_in_index(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_trace(tiny_trace, _cfg(metrics=reg, sample_interval=500))
        indices = [s["index"] for s in m.metrics_series]
        assert indices == sorted(indices)
        hits = [s["cache.page_hits_total"] for s in m.metrics_series]
        assert hits == sorted(hits)  # counters never decrease

    def test_interval_longer_than_trace(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_trace(
            tiny_trace, _cfg(metrics=reg, sample_interval=10 * len(tiny_trace))
        )
        assert [s["index"] for s in m.metrics_series] == [
            0.0,
            float(len(tiny_trace) - 1),
        ]

    def test_empty_trace_yields_no_snapshots(self):
        reg = MetricsRegistry()
        m = replay_trace(Trace("empty", []), _cfg(metrics=reg))
        assert m.metrics_series == []

    def test_disabled_metrics_leaves_series_empty(self, tiny_trace):
        m = replay_trace(tiny_trace, _cfg())
        assert m.metrics_series == []
        assert m.phase_profile == {}

    def test_metrics_do_not_change_results(self, tiny_trace):
        """Fast-path discipline: a metrics-enabled replay must produce
        the exact same ReplayMetrics as a plain one."""
        plain = replay_trace(tiny_trace, _cfg())
        metered = replay_trace(
            tiny_trace,
            _cfg(metrics=MetricsRegistry(), sample_interval=500, profile=True),
        )
        assert plain.summary() == metered.summary()

    def test_cache_only_sampling(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_cache_only(
            tiny_trace, _cfg(metrics=reg, sample_interval=500, profile=True)
        )
        assert len(m.metrics_series) >= 2
        last = m.metrics_series[-1]
        assert last["cache.page_hits_total"] == m.pages.hits
        assert "cache.occupancy_pages" in last
        assert set(m.phase_profile) == {"replay", "cache_access"}

    def test_cache_only_metrics_do_not_change_results(self, tiny_trace):
        plain = replay_cache_only(tiny_trace, _cfg())
        metered = replay_cache_only(
            tiny_trace, _cfg(metrics=MetricsRegistry(), sample_interval=500)
        )
        assert plain.summary() == metered.summary()

    def test_closed_loop_sampling(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_closed_loop(
            tiny_trace,
            _cfg(metrics=reg, sample_interval=500),
            queue_depth=8,
        )
        assert len(m.metrics_series) >= 2
        assert m.metrics_series[-1]["host.requests_total"] == m.n_requests

    def test_warmup_excluded_from_instruments(self, tiny_trace):
        warm = 100
        reg = MetricsRegistry()
        m = replay_trace(
            tiny_trace,
            _cfg(metrics=reg, sample_interval=500, warmup_requests=warm),
        )
        assert m.metrics_series[-1]["host.requests_total"] == m.n_requests
        assert m.n_requests == len(tiny_trace) - warm


class TestReplayProfile:
    def test_profile_covers_core_phases(self, tiny_trace):
        m = replay_trace(tiny_trace, _cfg(profile=True))
        phases = set(m.phase_profile)
        assert {"replay", "cache_access", "flush", "ftl"} <= phases
        for st in m.phase_profile.values():
            assert st["calls"] >= 1
            assert st["total_ms"] >= st["self_ms"] >= 0.0

    def test_profile_includes_gc_when_gc_runs(self):
        # The write-heavy paper workload triggers GC on a scaled device
        # (same setup as the full-replay integration test).
        from repro.traces.workloads import get_workload

        trace = get_workload("proj_0", 1 / 256)
        m = replay_trace(trace, _cfg(profile=True))
        assert m.gc_erases > 0, "workload was expected to trigger GC"
        assert "gc" in m.phase_profile
        assert m.phase_profile["gc"]["calls"] >= 1

    def test_replay_total_bounds_children(self, tiny_trace):
        m = replay_trace(tiny_trace, _cfg(profile=True))
        replay_total = m.phase_profile["replay"]["total_ms"]
        # Direct children of the replay loop cannot exceed it.
        direct = (
            m.phase_profile["cache_access"]["total_ms"]
            + m.phase_profile["flush"]["total_ms"]
            + m.phase_profile.get("read", {"total_ms": 0.0})["total_ms"]
        )
        assert direct <= replay_total

    def test_profile_does_not_change_results(self, tiny_trace):
        plain = replay_trace(tiny_trace, _cfg())
        profiled = replay_trace(tiny_trace, _cfg(profile=True))
        assert plain.summary() == profiled.summary()

    def test_closed_loop_profiles_the_open_loop_phases(self, tiny_trace):
        open_loop = replay_trace(tiny_trace, _cfg(profile=True))
        closed = replay_closed_loop(tiny_trace, _cfg(profile=True), queue_depth=8)
        assert {"replay", "cache_access", "flush", "ftl"} <= set(closed.phase_profile)
        assert set(closed.phase_profile) == set(open_loop.phase_profile)
        plain = replay_closed_loop(tiny_trace, _cfg(), queue_depth=8)
        assert closed.summary() == plain.summary()


class TestDftlAndFaultMetrics:
    def test_cmt_gauges_present_in_dftl_mode(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_trace(
            tiny_trace,
            _cfg(metrics=reg, sample_interval=500, mapping_cache_bytes=4096 * 4),
        )
        last = m.metrics_series[-1]
        assert last["ssd.cmt.hits_total"] + last["ssd.cmt.misses_total"] > 0

    def test_fault_gauges_present_with_injection(self, tiny_trace):
        reg = MetricsRegistry()
        m = replay_trace(
            tiny_trace,
            _cfg(metrics=reg, sample_interval=500, fault_profile="wearout"),
        )
        last = m.metrics_series[-1]
        assert "faults.program_fails_total" in last
        assert "faults.degraded_mode" in last
        assert m.metrics_series  # replay completed with both layers on
