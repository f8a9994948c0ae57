"""Integration: the ablation claims (``repro.core.experiments.claims``) on
the quick sweeps."""

from repro.core.experiments import FIGURES

SELECTOR, BUFFERS = FIGURES["ablations"]


class TestNodeSelectionAblation:
    def test_knowledge_based_placement_wins(self, holds):
        holds("ablations.node_selection")

    def test_table_renders(self, quick):
        assert quick(SELECTOR).format_table().startswith(SELECTOR.title)


class TestBufferChoiceAblation:
    def test_patterns_want_different_buffers(self, holds):
        holds("ablations.buffer_by_pattern")

    def test_table_renders(self, quick):
        assert quick(BUFFERS).format_table().startswith(BUFFERS.title)
