"""Benchmark: time Figure 8 (merge bandwidth by node selection) at 200 KB
buffers; ``test_claims.py`` checks the figure's claims."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG8,) = FIGURES["fig8"]


def test_fig8_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(
            FIG8, buffer_sizes=(200_000,), repeats=3, target_buffers=600
        ),
        iterations=1,
        rounds=3,
    )
