"""Benchmark ablation: time naive vs knowledge-based node selection at four
streams; ``test_claims.py`` checks section 5's node-selection claim."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

SELECTOR, _BUFFERS = FIGURES["ablations"]


def test_node_selection_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(SELECTOR, stream_counts=(4,), repeats=3, count=5),
        iterations=1,
        rounds=3,
    )
