"""Unit tests for measurement statistics."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import latency_summary, percentile, summarize


class TestSummarize:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_single_sample(self):
        stats = summarize([5.0])
        assert stats.mean == 5.0
        assert stats.std == 0.0
        assert stats.minimum == stats.maximum == 5.0
        # one repeat: std is defined as 0, not a division by a zero count
        assert summarize([0.0]).std == 0.0

    def test_known_values(self):
        stats = summarize([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.std == pytest.approx(math.sqrt(32 / 7))
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_str_rendering(self):
        assert "n=2" in str(summarize([1.0, 2.0]))

    def test_zero_variance(self):
        """Identical repeats: a plain zero std, not NaN from rounding."""
        stats = summarize([3.7] * 5)
        assert stats.mean == 3.7
        assert stats.std == 0.0
        assert not math.isnan(stats.std)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
def test_bounds_hold(samples):
    stats = summarize(samples)
    tolerance = 1e-9 * max(1.0, abs(stats.minimum), abs(stats.maximum))
    assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
    assert stats.std >= 0.0
    assert len(stats.samples) == len(samples)


class TestPercentile:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 37.0, 50.0, 95.0, 100.0):
            assert percentile([4.2], q) == 4.2

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_median_odd(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    def test_median_even_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)

    def test_linear_interpolation(self):
        # rank = 0.75 * (3 - 1) = 1.5 -> halfway between 20 and 30
        assert percentile([10.0, 20.0, 30.0], 75.0) == pytest.approx(25.0)

    def test_input_order_irrelevant_and_unmodified(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert values == [3.0, 1.0, 2.0]

    def test_shorthands(self):
        values = list(range(101))  # 0..100: p-th percentile is p exactly
        summary = latency_summary(values)
        assert (summary["p50"], summary["p95"], summary["p99"]) == (50.0, 95.0, 99.0)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=60),
        st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_within_bounds_and_monotone(self, samples, q):
        value = percentile(samples, q)
        assert min(samples) <= value <= max(samples)
        assert percentile(samples, 0.0) <= value <= percentile(samples, 100.0)


class TestLatencySummary:
    """One sort, the same floats as three ``percentile`` calls."""

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=200))
    def test_float_identical_to_three_percentile_calls(self, samples):
        before = list(samples)
        summary = latency_summary(samples)
        assert samples == before
        assert summary["p50"] == percentile(samples, 50.0)
        assert summary["p95"] == percentile(samples, 95.0)
        assert summary["p99"] == percentile(samples, 99.0)
        assert summary["n"] == len(samples)
        assert summary["min"] == min(samples)
        assert summary["max"] == max(samples)

    def test_mean_is_summed_in_arrival_order(self):
        # In arrival order the +1.0 survives the cancellation; summed after
        # sorting (-1e16, 1.0, 1e16) a left-to-right sum loses it.
        samples = [1e16, -1e16, 1.0]
        assert latency_summary(samples)["mean"] == sum(samples) / 3 == 1.0 / 3

    def test_empty_list_is_all_zeros(self):
        assert latency_summary([]) == {
            "n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
