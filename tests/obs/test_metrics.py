"""Unit tests for the metrics registry, instruments and sampler."""

from __future__ import annotations

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL,
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Rate,
    Sampler,
    prometheus_name,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter()
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_negative_increment_rejected(self):
        c = Counter()
        with pytest.raises(ValueError):
            c.inc(-1)
        assert c.value == 0

    def test_merge_and_reset(self):
        a, b = Counter(), Counter()
        a.inc(3)
        b.inc(4)
        a.merge(b)
        assert a.value == 7
        a.reset()
        assert a.value == 0


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge()
        g.set(10.0)
        g.inc(2.5)
        g.dec(0.5)
        assert g.value == 12.0
        assert g.updates == 3

    def test_merge_last_writer_wins(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0

    def test_merge_ignores_never_set_gauge(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        a.merge(b)  # b never touched -> a keeps its value
        assert a.value == 1.0


def _state(h: Histogram) -> tuple:
    return (h.count, h.sum.hex(), h.min, h.max, h._zero, h._buckets)


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram()
        for x in (1.0, 2.0, 3.0, 10.0):
            h.observe(x)
        assert h.count == 4
        assert h.sum == 16.0
        assert h.mean == 4.0
        assert h.min == 1.0
        assert h.max == 10.0

    def test_zero_and_negative_samples(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(-1.0)
        h.observe(4.0)
        assert h.count == 3
        # q below the zero-bucket mass returns the (clamped) min.
        assert h.quantile(0.5) == 0.0

    @pytest.mark.parametrize("x", [1, 3, 0.0, -2.0])
    def test_observe_n_is_n_observes_of_an_integer_sample(self, x):
        once, many = Histogram(), Histogram()
        for h in (once, many):
            h.observe(5.0)
        once.observe(x, 7)
        for _ in range(7):
            many.observe(x)
        assert _state(once) == _state(many)
        assert once.flatten("h") == many.flatten("h")

    def test_empty_quantile_is_zero(self):
        assert Histogram().quantile(0.99) == 0.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    @pytest.mark.parametrize("growth", [1.5, 2.0, 4.0])
    def test_quantile_error_bounded_by_growth(self, growth):
        """Estimate within a factor of ``growth`` of the brute-force
        quantile — the documented accuracy bound."""
        import random

        rng = random.Random(1234)
        samples = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        h = Histogram(growth=growth)
        for x in samples:
            h.observe(x)
        samples.sort()
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = samples[min(len(samples) - 1, int(q * len(samples)))]
            est = h.quantile(q)
            assert exact / growth <= est <= exact * growth, (q, exact, est)

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram()
        h.observe(3.0)
        assert h.quantile(0.5) == 3.0
        assert h.quantile(1.0) == 3.0

    def test_merge_requires_same_growth(self):
        with pytest.raises(ValueError):
            Histogram(growth=2.0).merge(Histogram(growth=3.0))

    def test_merge_equals_combined_stream(self):
        a, b, ref = Histogram(), Histogram(), Histogram()
        for x in (0.5, 1.0, 7.0):
            a.observe(x)
            ref.observe(x)
        for x in (2.0, 100.0):
            b.observe(x)
            ref.observe(x)
        a.merge(b)
        assert a.count == ref.count
        assert a.sum == ref.sum
        for q in (0.25, 0.5, 0.99):
            assert a.quantile(q) == ref.quantile(q)

    def test_reset(self):
        h = Histogram()
        h.observe(5.0)
        h.reset()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.min == math.inf

    def test_flatten_keys(self):
        h = Histogram()
        h.observe(2.0)
        flat = h.flatten("x.y")
        assert set(flat) == {
            "x.y.count", "x.y.sum", "x.y.mean", "x.y.max", "x.y.p50", "x.y.p99",
        }

    def test_invalid_growth_rejected(self):
        with pytest.raises(ValueError):
            Histogram(growth=1.0)


class TestRate:
    def test_reports_last_completed_window(self):
        r = Rate(window=10.0)
        r.mark(1.0)
        r.mark(2.0)
        assert r.value(5.0) == 0.0  # current window not finished
        r.mark(11.0)
        assert r.value(11.0) == pytest.approx(0.2)  # 2 events / 10 units
        assert r.total == 3

    def test_gap_longer_than_window_reads_zero(self):
        r = Rate(window=10.0)
        r.mark(1.0)
        assert r.value(35.0) == 0.0

    def test_merge_same_window_adds(self):
        a, b = Rate(window=10.0), Rate(window=10.0)
        a.mark(1.0)
        b.mark(2.0)
        a.merge(b)
        a.mark(11.0)
        assert a.value(11.0) == pytest.approx(0.2)
        assert a.total == 3

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            Rate(window=0.0)


class TestRegistry:
    def test_instruments_cached_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("a.b")
        with pytest.raises(TypeError):
            reg.gauge("a.b")

    @pytest.mark.parametrize(
        "bad", ["nodots", "Upper.case", "a.", ".b", "a..b", "a.b-c", "1a.b"]
    )
    def test_name_validation(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().counter(bad)

    def test_collector_runs_before_snapshot(self):
        reg = MetricsRegistry()
        g = reg.gauge("cache.occupancy_pages")
        seen = []

        def collect(now):
            seen.append(now)
            g.set(42.0)

        reg.register_collector(collect)
        snap = reg.snapshot(7.0)
        assert seen == [7.0]
        assert snap["cache.occupancy_pages"] == 42.0

    def test_snapshot_flattens_all_kinds(self):
        reg = MetricsRegistry()
        reg.counter("a.hits").inc(3)
        reg.gauge("a.size").set(5.0)
        reg.histogram("a.lat_ms").observe(2.0)
        reg.rate("a.rate").mark(0.0)
        snap = reg.snapshot(0.0)
        assert snap["a.hits"] == 3.0
        assert snap["a.size"] == 5.0
        assert snap["a.lat_ms.count"] == 1.0
        assert snap["a.rate.total"] == 1.0

    def test_reset_keeps_collectors(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(9)
        calls = []
        reg.register_collector(lambda now: calls.append(now))
        reg.reset()
        assert reg.snapshot(0.0)["a.b"] == 0.0
        assert calls  # collector survived the reset

    def test_prometheus_text(self):
        reg = MetricsRegistry()
        reg.counter("cache.page_hits_total").inc(7)
        reg.gauge("cache.occupancy_pages").set(3.0)
        reg.histogram("host.response_ms").observe(1.5)
        text = reg.prometheus_text(0.0)
        assert "# TYPE repro_cache_page_hits_total counter" in text
        assert "repro_cache_page_hits_total 7" in text
        assert "# TYPE repro_cache_occupancy_pages gauge" in text
        assert 'repro_host_response_ms{quantile="0.5"}' in text
        assert "repro_host_response_ms_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_name(self):
        assert prometheus_name("ssd.gc.busy_ms_total") == "repro_ssd_gc_busy_ms_total"


class TestNullRegistry:
    def test_disabled_and_absorbing(self):
        assert not NULL_METRICS.enabled
        c = NULL_METRICS.counter("anything goes — never validated")
        c.inc()
        c.observe(3.0)
        c.mark(1.0)
        c.set(9.0)
        assert c.value == 0
        assert NULL_METRICS.snapshot(0.0) == {}
        assert NULL_METRICS.names() == []

    def test_collectors_dropped(self):
        NULL_METRICS.register_collector(lambda now: 1 / 0)
        NULL_METRICS.collect(0.0)  # must not raise


class TestSampler:
    def test_cadence_with_finalize(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        sampler = Sampler(reg, interval=3)
        for i in range(8):
            c.inc()
            sampler.maybe_sample(i, float(i))
        sampler.finalize(7, 7.0)
        # Samples at 0, 3, 6 plus the final one at 7.
        assert [s["index"] for s in sampler.series] == [0.0, 3.0, 6.0, 7.0]
        assert sampler.series[-1]["a.b"] == 8.0

    def test_finalize_skips_duplicate(self):
        reg = MetricsRegistry()
        sampler = Sampler(reg, interval=2)
        sampler.maybe_sample(0, 0.0)
        sampler.maybe_sample(1, 1.0)
        sampler.maybe_sample(2, 2.0)
        sampler.finalize(2, 2.0)
        assert [s["index"] for s in sampler.series] == [0.0, 2.0]

    def test_interval_longer_than_trace_still_two_snapshots(self):
        reg = MetricsRegistry()
        sampler = Sampler(reg, interval=DEFAULT_SAMPLE_INTERVAL)
        sampler.maybe_sample(0, 0.0)
        sampler.maybe_sample(1, 1.0)
        sampler.finalize(1, 1.0)
        assert len(sampler.series) == 2

    def test_zero_length_trace_yields_nothing(self):
        sampler = Sampler(MetricsRegistry(), interval=5)
        assert sampler.series == []

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            Sampler(MetricsRegistry(), interval=0)
