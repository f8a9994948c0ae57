"""Smoke tests of the scale figure (tiny shapes; the real run is BENCH)."""

import pytest

from repro.core.experiments.scale import (
    ScaleResult,
    _scaled_defaults,
    run_scale,
    scale_stream_query,
)
from repro.scsql.plan import compile_plan


class TestScaledDefaults:
    def test_full_shape_gets_the_headline_workload(self):
        assert _scaled_defaults((16, 16, 16)) == 1024

    def test_smoke_shape_scales_down_with_the_node_count(self):
        assert _scaled_defaults((8, 8, 8)) == 128

    def test_tiny_shape_keeps_a_concurrency_floor(self):
        assert _scaled_defaults((4, 4, 2)) == 16


class TestScaleQuery:
    def test_query_compiles_and_is_index_free(self):
        text = scale_stream_query(1000, 2)
        assert "'bg'" in text
        assert "0" not in text.split("gen_array")[0]  # no node indices
        plan = compile_plan(text)
        assert plan is not None


class TestRunScale:
    @pytest.fixture(scope="class")
    def result(self):
        # One shared tiny run: 4x4x2 torus, a handful of queries.
        return run_scale(shape=(4, 4, 2), queries=4)

    def test_result_shape_and_counts(self, result):
        assert isinstance(result, ScaleResult)
        assert result.shape == (4, 4, 2)
        assert result.mqs_queries == 4
        assert result.mqs_events > 0
        assert result.mqs_mbps > 0

    def test_metrics_names_and_figure(self, result):
        assert result.figure == "scale[torus=4x4x2]"
        assert result.metrics() == {"scale[torus=4x4x2]/mqs_mbps": result.mqs_mbps}

    def test_route_memo_stayed_bounded(self, result):
        assert result.route_entries <= 16_384
        assert result.route_memo_bytes < 32 * 1024 * 1024

    def test_simulated_portion_is_deterministic(self):
        """Same seed, same shape: the whole result is bit-identical."""
        assert run_scale(shape=(4, 4, 2), queries=3) == run_scale(
            shape=(4, 4, 2), queries=3
        )
