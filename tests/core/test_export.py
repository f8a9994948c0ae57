"""Tests for the plot-ready rows of a sweep result."""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.scaling import ScalingKey
from repro.core.measurement import (
    BandwidthResult,
    SweepResult,
    run_sweep,
)
from repro.util.stats import summarize

(FIG6,), (FIG8,), (FIG15,), (SCALING,) = (
    FIGURES[name] for name in ("fig6", "fig8", "fig15", "scaling")
)
STATS = {"mbps_mean", "mbps_std", "repeats"}


@pytest.fixture(scope="module")
def fig6_result():
    return run_sweep(FIG6, buffer_sizes=(1000, 5000), repeats=1, target_buffers=200)


class TestRows:
    def test_fig6_rows_schema(self, fig6_result):
        rows = fig6_result.rows()
        assert len(rows) == 4  # 2 sizes x 2 modes
        assert set(rows[0]) == {"buffer_bytes", "double_buffering"} | STATS
        assert all(r["mbps_mean"] > 0 for r in rows)

    def test_fig15_rows_sorted(self):
        result = run_sweep(
            FIG15, stream_counts=(2, 1), queries=(5,), repeats=1, array_count=2
        )
        assert [r["n"] for r in result.rows()] == [1, 2]


class TestOtherRows:
    def test_fig8_rows(self):
        result = run_sweep(FIG8, buffer_sizes=(1000,), repeats=1, target_buffers=150)
        rows = result.rows()
        assert len(rows) == 4  # 2 selections x 2 modes
        assert {(r["balanced"], r["double_buffering"]) for r in rows} == {
            (False, False), (False, True), (True, False), (True, True),
        }

    def test_scaling_rows(self):
        study = SweepResult(SCALING, {
            ScalingKey(6, 4, 1.0): BandwidthResult(summarize([700.0]), 1),
            ScalingKey(5, 4, 1.0): BandwidthResult(summarize([900.0]), 1),
        })
        rows = study.rows()
        assert [r["query_number"] for r in rows] == [5, 6]
        assert rows[0]["num_io_nodes"] == 4
        assert rows[0]["repeats"] == 1  # the column scaling alone lacked
