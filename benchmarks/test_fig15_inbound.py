"""Benchmark: time Figure 15 (inbound streaming) at Query 5's peak;
``test_claims.py`` checks the figure's claims."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG15,) = FIGURES["fig15"]


def test_fig15_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(
            FIG15, stream_counts=(4,), queries=(5,), repeats=3, array_count=5
        ),
        iterations=1,
        rounds=3,
    )
