"""Tests for the six calibrated paper workloads."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.paper_reference import TABLE2
from repro.traces.stats import characterize
from repro.traces.synthetic import generate_trace
from repro.traces.workloads import (
    DEFAULT_SCALE,
    PAPER_WORKLOADS,
    WORKLOAD_ORDER,
    get_config,
    get_workload,
    scaled_cache_bytes,
)

SMALL_SCALE = 1 / 128  # fast enough for unit tests


class TestRegistry:
    def test_all_six_present(self):
        assert set(WORKLOAD_ORDER) == set(PAPER_WORKLOADS)
        assert len(WORKLOAD_ORDER) == 6

    def test_order_matches_table2_write_ratio(self):
        ratios = [PAPER_WORKLOADS[w].write_ratio for w in WORKLOAD_ORDER]
        assert ratios == sorted(ratios)

    def test_unknown_name_raises_with_hint(self):
        with pytest.raises(KeyError, match="hm_1"):
            get_config("nope")

    def test_full_scale_request_counts_match_table2(self):
        for name, cfg in PAPER_WORKLOADS.items():
            assert cfg.n_requests == TABLE2[name][0]

    def test_full_scale_write_ratio_matches_table2(self):
        for name, cfg in PAPER_WORKLOADS.items():
            assert cfg.write_ratio == pytest.approx(TABLE2[name][1], abs=1e-3)

    def test_configured_mean_write_size_matches_table2(self):
        for name, cfg in PAPER_WORKLOADS.items():
            kb = cfg.mean_write_pages * 4
            assert kb == pytest.approx(TABLE2[name][2], rel=0.05), name


class TestGeneratedTraces:
    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_measured_write_ratio(self, name):
        spec = characterize(get_workload(name, SMALL_SCALE))
        assert spec.write_ratio == pytest.approx(TABLE2[name][1], abs=0.05)

    @pytest.mark.parametrize("name", WORKLOAD_ORDER)
    def test_measured_write_size(self, name):
        spec = characterize(get_workload(name, SMALL_SCALE))
        assert spec.mean_write_size_kb == pytest.approx(TABLE2[name][2], rel=0.25)

    def test_memoised(self):
        a = get_workload("hm_1", SMALL_SCALE)
        b = get_workload("hm_1", SMALL_SCALE)
        assert a is b

    def test_different_scales_differ(self):
        a = get_workload("hm_1", SMALL_SCALE)
        b = get_workload("hm_1", SMALL_SCALE / 2)
        assert len(a) != len(b)

    def test_memo_follows_a_retuned_config(self, monkeypatch):
        """Re-seeding a workload must not return the old seed's trace."""
        old = get_workload("hm_1", SMALL_SCALE)
        reseeded = replace(PAPER_WORKLOADS["hm_1"], seed=4242)
        monkeypatch.setitem(PAPER_WORKLOADS, "hm_1", reseeded)
        new = get_workload("hm_1", SMALL_SCALE)
        assert new.requests != old.requests
        assert new.requests == generate_trace(reseeded.scaled(SMALL_SCALE)).requests


class TestScaledCache:
    def test_proportional(self):
        assert scaled_cache_bytes(16, 1.0) == 16 * 1024 * 1024
        assert scaled_cache_bytes(16, 0.5) == 8 * 1024 * 1024

    def test_floor(self):
        assert scaled_cache_bytes(16, 1e-9) == 4096

    def test_default_scale(self):
        assert scaled_cache_bytes(16) == int(16 * 1024 * 1024 * DEFAULT_SCALE)
