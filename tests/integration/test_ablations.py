"""Integration: the ablation experiments (scaled down).

These close the loop on the paper's conclusions: the measurements exist to
improve the node selection algorithm, and the right buffer size depends on
the communication pattern.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.ablations import improvement, optimal_buffer
from repro.core.measurement import run_sweep

SELECTOR, BUFFERS = FIGURES["ablations"]


@pytest.fixture(scope="module")
def node_selection():
    return run_sweep(SELECTOR, stream_counts=(4,), repeats=2, count=4)


class TestNodeSelectionAblation:
    def test_knowledge_based_placement_wins(self, node_selection):
        """Placement informed by the paper's observations (co-locate be
        senders, spread BG psets) beats next-available placement by a wide
        margin on the inbound workload."""
        assert improvement(node_selection, 4) > 2.0

    def test_table_renders(self, node_selection):
        table = node_selection.format_table()
        assert "naive" in table and "knowledge" in table


class TestBufferChoiceAblation:
    @pytest.fixture(scope="class")
    def ablation(self):
        return run_sweep(BUFFERS, buffer_sizes=(1000, 2000, 100_000), repeats=2)

    def test_patterns_want_different_buffers(self, ablation):
        """Section 5: 'the optimal stream buffer size for MPI communication
        inside BlueGene was highly dependent on whether point-to-point or
        merging stream communication was performed'."""
        assert optimal_buffer(ablation, "p2p") == 1000
        assert optimal_buffer(ablation, "merge") >= 10_000

    def test_table_renders(self, ablation):
        table = ablation.format_table()
        assert "p2p" in table and "merge" in table
        assert "optimal" in BUFFERS.headline(ablation)
