"""Benchmark: time Figure 6 (intra-BG point-to-point bandwidth) at its
optimum buffer; ``test_claims.py`` checks the figure's claims."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG6,) = FIGURES["fig6"]


def test_fig6_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(FIG6, buffer_sizes=(1000,), repeats=3, target_buffers=800),
        iterations=1,
        rounds=3,
    )
