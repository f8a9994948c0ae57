"""Fast ordinal shape checks: one repeat, minimal sweeps, seconds not minutes.

The full shape suites (``test_fig6_shape.py`` etc.) sweep several points
with repeats; these single-repeat variants only pin the *ordering* claims —
each figure's headline comparison — so a broken mechanism is caught even in
the quickest test run.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.fig8 import balanced_advantage
from repro.core.measurement import run_sweep

(FIG6,), (FIG8,), (FIG15,) = (FIGURES[name] for name in ("fig6", "fig8", "fig15"))


class TestFig6Ordinal:
    def test_knee_at_one_kilobyte(self):
        fig6 = run_sweep(
            FIG6,
            buffer_sizes=(200, 1000, 100_000),
            repeats=1,
            target_buffers=200,
        )
        assert fig6.best(double_buffering=False)[0].buffer_bytes == 1000
        assert fig6.best(double_buffering=True)[0].buffer_bytes == 1000


class TestFig8Ordinal:
    def test_balanced_selection_beats_sequential(self):
        fig8 = run_sweep(
            FIG8,
            buffer_sizes=(200_000,),
            repeats=1,
            target_buffers=150,
        )
        for double in (False, True):
            sequential = fig8.at(200_000, False, double)
            balanced = fig8.at(200_000, True, double)
            assert balanced.mean_mbps > sequential.mean_mbps
        assert balanced_advantage(fig8) > 1.2


class TestFig15Ordinal:
    @pytest.fixture(scope="class")
    def fig15(self):
        return run_sweep(
            FIG15,
            stream_counts=(4, 5),
            queries=(1, 5),
            repeats=1,
            array_count=3,
        )

    def test_query5_dips_when_io_nodes_are_shared(self, fig15):
        # n=5: a fifth receiving pset shares one of the four I/O nodes.
        assert fig15.at(5, 4).mean_mbps > fig15.at(5, 5).mean_mbps

    def test_spread_psets_beat_single_io_node(self, fig15):
        # Query 5 (psetrr) uses four I/O nodes; Query 1 funnels through one.
        assert fig15.at(5, 4).mean_mbps > fig15.at(1, 4).mean_mbps
