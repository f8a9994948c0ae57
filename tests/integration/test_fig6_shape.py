"""Integration: the Figure 6 curve shape (scaled down for test speed).

Asserted claims, from the paper's Figure 6 discussion:

* "the optimal buffer size is 1000 bytes for both single and double
  buffering";
* bandwidth degrades below 1000 bytes ("1K is the smallest message size
  that can be exchanged in the BlueGene 3D torus");
* bandwidth drops off above 1000 bytes ("probably due to cache misses");
* "double buffering pays off for large buffers".
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG6,) = FIGURES["fig6"]

BUFFER_SIZES = (200, 1000, 5000, 200_000)


@pytest.fixture(scope="module")
def fig6():
    return run_sweep(FIG6, buffer_sizes=BUFFER_SIZES, repeats=2, target_buffers=300)


def curve(fig6, double):
    return {
        key.buffer_bytes: point.mean_mbps
        for key, point in fig6.curve(double_buffering=double)
    }


class TestFig6Shape:
    def test_optimum_is_1000_bytes_for_both_modes(self, fig6):
        assert fig6.best(double_buffering=False)[0].buffer_bytes == 1000
        assert fig6.best(double_buffering=True)[0].buffer_bytes == 1000

    def test_small_buffers_are_slow(self, fig6):
        for double in (False, True):
            series = curve(fig6, double)
            assert series[200] < 0.75 * series[1000]

    def test_drop_off_above_the_knee(self, fig6):
        for double in (False, True):
            series = curve(fig6, double)
            assert series[5000] < series[1000]
            assert series[200_000] < series[1000]

    def test_double_buffering_pays_off_for_large_buffers(self, fig6):
        single = curve(fig6, False)
        double = curve(fig6, True)
        assert double[200_000] > 1.1 * single[200_000]

    def test_double_buffering_matters_less_for_small_buffers(self, fig6):
        single = curve(fig6, False)
        double = curve(fig6, True)
        small_gain = double[200] / single[200]
        large_gain = double[200_000] / single[200_000]
        assert small_gain < large_gain

    def test_repeats_have_low_variance(self, fig6):
        for point in fig6.points.values():
            assert point.mbps.std / point.mbps.mean < 0.05

    def test_table_renders(self, fig6):
        table = fig6.format_table()
        assert "Figure 6" in table
        assert "1000" in table
