"""Integration: the Figure 6 claims (``repro.core.experiments.claims``) on
the quick sweep, and the variance of its repeats."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG6,) = FIGURES["fig6"]


class TestFig6Shape:
    def test_optimum_is_1000_bytes_for_both_modes(self, holds):
        holds("fig6.optimum")

    def test_small_buffers_are_slow(self, holds):
        holds("fig6.below_the_knee")

    def test_drop_off_above_the_knee(self, holds):
        holds("fig6.above_the_knee")

    def test_double_buffering_pays_off_for_large_buffers(self, holds):
        holds("fig6.double_pays_off")

    def test_double_buffering_matters_less_for_small_buffers(self, holds):
        holds("fig6.double_small")

    def test_repeats_have_low_variance(self):
        for point in run_sweep(FIG6, **FIG6.quick, repeats=2).points.values():
            assert point.mbps.std / point.mbps.mean < 0.05

    def test_table_renders(self, quick):
        assert quick(FIG6).format_table().startswith(FIG6.title)
