"""Integration: the Figure 8 merge-topology shape (scaled down).

Asserted claims, from the paper's Figure 8 discussion and section 5:

1. "The streaming bandwidth depends highly on the compute nodes to which
   the RPs are allocated" — balanced beats sequential, "up to 60% better";
2. "The benefit of double buffering is less significant than that of
   point-to-point communication";
3. "buffers smaller than 10K are much slower for stream merging than for
   point-to-point communication".
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.fig8 import balanced_advantage
from repro.core.measurement import run_sweep

(FIG6,), (FIG8,) = FIGURES["fig6"], FIGURES["fig8"]

BUFFER_SIZES = (1000, 10_000, 200_000)


@pytest.fixture(scope="module")
def fig8():
    return run_sweep(FIG8, buffer_sizes=BUFFER_SIZES, repeats=2, target_buffers=250)


@pytest.fixture(scope="module")
def fig6_reference():
    return run_sweep(FIG6, buffer_sizes=(1000,), repeats=2, target_buffers=250)


def curve(fig8, balanced, double):
    return {
        key.buffer_bytes: point.mean_mbps
        for key, point in fig8.curve(balanced=balanced, double_buffering=double)
    }


class TestFig8Shape:
    def test_balanced_beats_sequential_at_large_buffers(self, fig8):
        for double in (False, True):
            sequential = curve(fig8, False, double)
            balanced = curve(fig8, True, double)
            assert balanced[200_000] > 1.4 * sequential[200_000]

    def test_advantage_is_roughly_sixty_percent(self, fig8):
        assert 1.4 <= balanced_advantage(fig8, double_buffering=True) <= 1.9

    def test_topologies_converge_at_small_buffers(self, fig8):
        sequential = curve(fig8, False, True)
        balanced = curve(fig8, True, True)
        assert balanced[1000] == pytest.approx(sequential[1000], rel=0.15)

    def test_merging_wants_large_buffers(self, fig8):
        """Merge bandwidth at 1 KB is far below its large-buffer level."""
        balanced = curve(fig8, True, True)
        assert balanced[1000] < 0.6 * balanced[200_000]

    def test_small_buffers_slower_for_merge_than_p2p(self, fig8, fig6_reference):
        p2p_at_1k = fig6_reference.best(double_buffering=True)[1].mean_mbps
        merge_at_1k = curve(fig8, True, True)[1000]
        assert merge_at_1k < 0.6 * p2p_at_1k

    def test_double_buffering_less_significant_than_p2p(self, fig8, fig6_reference):
        """Paper observation 2: the double-buffer gain for merging is smaller
        than for point-to-point (compare at the largest buffer)."""
        merge_single = curve(fig8, True, False)
        merge_double = curve(fig8, True, True)
        merge_gain = merge_double[200_000] / merge_single[200_000]
        fig6_full = run_sweep(
            FIG6, buffer_sizes=(200_000,), repeats=2, target_buffers=250
        )
        p2p_gain = (
            fig6_full.at(200_000, True).mean_mbps
            / fig6_full.at(200_000, False).mean_mbps
        )
        assert merge_gain < p2p_gain

    def test_table_renders(self, fig8):
        table = fig8.format_table()
        assert "Figure 8" in table
        assert "seq/double" in table
