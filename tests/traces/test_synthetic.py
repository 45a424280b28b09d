"""Tests for the synthetic trace generator."""

from __future__ import annotations

import dataclasses

import pytest

from repro.traces.model import OpType
from repro.traces.synthetic import SyntheticConfig, generate_trace


def cfg(**overrides) -> SyntheticConfig:
    base = dict(
        name="t",
        n_requests=3000,
        seed=7,
        write_ratio=0.6,
        small_write_fraction=0.6,
        small_size_mean=2.0,
        small_size_max=4,
        large_size_mean=10.0,
        large_size_max=64,
        n_hot_slots=64,
        zipf_theta=1.0,
        large_span_pages=10_000,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestConfigValidation:
    def test_rejects_overlapping_size_classes(self):
        with pytest.raises(ValueError, match="large_size_mean"):
            cfg(large_size_mean=3.0, small_size_max=4)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            cfg(write_ratio=1.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            # Divided by in generation (0), or zeroes every gap (< 0).
            ("target_pages_per_ms", 0),
            ("target_pages_per_ms", -1.0),
            ("recent_small_window", -1),
            ("recent_large_window", -1),
            # Would make the burst-end probability 1/mean exceed 1.
            ("mean_burst_len", 0.5),
            ("small_partial_read_prob", 1.5),
            ("small_partial_read_prob", -0.1),
        ],
    )
    def test_rejects_bad_field_naming_it(self, field, value):
        with pytest.raises(ValueError, match=field):
            cfg(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("target_pages_per_ms", None),
            ("recent_small_window", 0),
            ("recent_large_window", 0),
            ("mean_burst_len", 1.0),
            ("small_partial_read_prob", 0.0),
            ("small_partial_read_prob", 1.0),
        ],
    )
    def test_accepts_boundary_values(self, field, value):
        assert len(generate_trace(cfg(n_requests=200, **{field: value}))) == 200

    def test_mean_write_pages(self):
        c = cfg(small_write_fraction=0.5, small_size_mean=2.0, large_size_mean=10.0)
        assert c.mean_write_pages == pytest.approx(6.0)

    def test_hot_span(self):
        c = cfg(n_hot_slots=64, small_size_max=4)
        assert c.hot_span_pages == 256

    def test_scaled_preserves_character(self):
        c = cfg(n_requests=10_000, n_hot_slots=1000, large_span_pages=100_000)
        s = c.scaled(0.1)
        assert s.n_requests == 1000
        assert s.n_hot_slots == 100
        assert s.large_span_pages == 10_000
        assert s.write_ratio == c.write_ratio
        assert s.small_size_mean == c.small_size_mean

    def test_scaled_floors(self):
        s = cfg().scaled(1e-6)
        assert s.n_requests >= 1
        assert s.n_hot_slots >= 8
        assert s.large_span_pages >= 1024

    def test_rate_calibration(self):
        c = cfg(target_pages_per_ms=4.0)
        assert c.effective_inter_burst_gap_ms > 0
        # Without a target, the configured gap is used verbatim.
        c2 = cfg(inter_burst_gap_ms=3.0)
        assert c2.effective_inter_burst_gap_ms == 3.0


class TestGeneration:
    def test_deterministic(self):
        a = generate_trace(cfg())
        b = generate_trace(cfg())
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_seed_changes_trace(self):
        a = generate_trace(cfg(seed=1))
        b = generate_trace(cfg(seed=2))
        assert any(ra != rb for ra, rb in zip(a, b))

    def test_request_count(self):
        assert len(generate_trace(cfg(n_requests=500))) == 500

    def test_times_non_decreasing(self):
        t = generate_trace(cfg())
        times = [r.time for r in t]
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_write_ratio_close(self):
        t = generate_trace(cfg(write_ratio=0.6, n_requests=8000))
        measured = sum(1 for r in t if r.is_write) / len(t)
        assert measured == pytest.approx(0.6, abs=0.03)

    def test_mean_write_size_close(self):
        c = cfg(n_requests=8000)
        t = generate_trace(c)
        writes = [r.npages for r in t.writes()]
        measured = sum(writes) / len(writes)
        # Geometric clipping biases slightly low; 20% tolerance.
        assert measured == pytest.approx(c.mean_write_pages, rel=0.2)

    def test_small_writes_land_in_hot_region(self):
        c = cfg()
        t = generate_trace(c)
        hot_span = c.hot_span_pages
        small = [r for r in t.writes() if r.npages <= c.small_size_max]
        in_hot = sum(1 for r in small if r.lpn < hot_span)
        # All slot writes start inside the hot region (some large-class
        # draws can produce sizes <= small_size_max, landing outside).
        assert in_hot / len(small) > 0.8

    def test_large_writes_land_in_streaming_region(self):
        c = cfg()
        t = generate_trace(c)
        large = [r for r in t.writes() if r.npages > c.small_size_max]
        assert large, "expected some large writes"
        outside = sum(1 for r in large if r.lpn >= c.hot_span_pages)
        assert outside / len(large) > 0.95

    def test_addresses_bounded(self):
        c = cfg()
        t = generate_trace(c)
        bound = c.hot_span_pages + c.large_span_pages + c.large_size_max
        assert t.max_lpn() <= bound

    def test_size_locality_correlation(self):
        """The paper's core premise: small-write pages are re-accessed
        far more often than large-write pages."""
        c = cfg(n_requests=10_000)
        t = generate_trace(c)
        from collections import Counter

        counts: Counter[int] = Counter()
        small_pages, large_pages = set(), set()
        for r in t:
            for lpn in r.pages():
                counts[lpn] += 1
        for r in t.writes():
            target = small_pages if r.npages <= c.small_size_max else large_pages
            target.update(r.pages())
        large_only = large_pages - small_pages
        mean_small = sum(counts[p] for p in small_pages) / len(small_pages)
        mean_large = sum(counts[p] for p in large_only) / len(large_only)
        assert mean_small > 2.0 * mean_large
