"""Unit tests for the metric primitives (counters, gauges, time-weighted)."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    TimeWeightedStat,
)


class TestCounter:
    def test_accumulates(self):
        counter = Counter()
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5


class TestGauge:
    def test_tracks_peak(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.peak == 7


class TestTimeWeightedStat:
    def test_integral_and_mean(self):
        stat = TimeWeightedStat()
        stat.update(0.0, 2.0)   # level 2 from t=0
        stat.update(4.0, 0.0)   # back to 0 at t=4
        stat.finalize(10.0)
        assert stat.integral == pytest.approx(8.0)
        assert stat.mean(10.0) == pytest.approx(0.8)
        assert stat.maximum == 2.0

    def test_dwell_histogram_is_time_weighted(self):
        stat = TimeWeightedStat()
        stat.update(0.0, 1.0)
        stat.update(3.0, 2.0)
        stat.update(4.0, 0.0)
        stat.finalize(4.0)
        assert stat.dwell[1.0] == pytest.approx(3.0)
        assert stat.dwell[2.0] == pytest.approx(1.0)
        assert stat.time_at_or_above(1) == pytest.approx(4.0)
        assert stat.time_at_or_above(2) == pytest.approx(1.0)

    def test_empty_span_mean_is_current(self):
        stat = TimeWeightedStat()
        assert stat.mean() == 0.0
        stat.update(0.0, 5.0)
        assert stat.mean() == 5.0  # zero elapsed time: no division

    def test_finalize_is_idempotent(self):
        stat = TimeWeightedStat()
        stat.update(0.0, 1.0)
        stat.finalize(2.0)
        stat.finalize(2.0)
        assert stat.integral == pytest.approx(2.0)

    def test_mean_extends_open_interval(self):
        stat = TimeWeightedStat()
        stat.update(0.0, 4.0)
        # Interval still open; mean(now) extrapolates the current level.
        assert stat.mean(2.0) == pytest.approx(4.0)


class TestMetricsRegistry:
    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.time_weighted("t") is registry.time_weighted("t")

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.add("events", 3)
        registry.set_gauge("depth", 2)
        registry.set_gauge("depth", 1)
        registry.time_weighted("level").update(0.0, 1.0)
        registry.time_weighted("level").update(2.0, 0.0)
        snap = registry.snapshot(now=4.0)
        assert snap.counter("events") == 3
        assert snap.counter("missing") == 0.0
        assert snap.gauges["depth"] == 1
        assert snap.peak("depth") == 2
        assert snap.time_weighted["level"]["integral"] == pytest.approx(2.0)
        assert snap.time_weighted["level"]["mean"] == pytest.approx(0.5)
        assert snap.now == 4.0

    def test_series_starts_at_first_observation_time(self):
        registry = MetricsRegistry()
        # First update at t=5: the series must not count [0, 5) as dwell.
        registry.time_weighted("late", start_ts=5.0).update(5.0, 1.0)
        registry.time_weighted("late", start_ts=7.0).update(7.0, 0.0)
        series = registry.series["late"]
        assert series.elapsed() == pytest.approx(2.0)
        assert series.mean() == pytest.approx(1.0)
