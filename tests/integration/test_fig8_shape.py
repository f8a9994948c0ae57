"""Integration: the Figure 8 claims (``repro.core.experiments.claims``) on
the quick sweeps."""

from repro.core.experiments import FIGURES

(FIG8,) = FIGURES["fig8"]


class TestFig8Shape:
    def test_balanced_beats_sequential_at_large_buffers(self, holds):
        holds("fig8.selection_matters")

    def test_advantage_is_roughly_sixty_percent(self, holds):
        holds("fig8.up_to_sixty_percent")

    def test_topologies_converge_at_small_buffers(self, holds):
        holds("fig8.converge_at_small_buffers")

    def test_merging_wants_large_buffers(self, holds):
        holds("fig8.merging_wants_large_buffers")

    def test_small_buffers_slower_for_merge_than_p2p(self, holds):
        holds("fig8.small_buffers_slower_than_p2p")

    def test_double_buffering_less_significant_than_p2p(self, holds):
        holds("fig8.double_less_than_p2p")

    def test_table_renders(self, quick):
        assert quick(FIG8).format_table().startswith(FIG8.title)
