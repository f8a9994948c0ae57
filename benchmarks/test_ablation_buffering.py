"""Benchmark ablation: time the buffer-size-by-pattern sweep at two buffers;
``test_claims.py`` checks section 5's buffer claim."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

_SELECTOR, BUFFERS = FIGURES["ablations"]


def test_buffer_choice_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(BUFFERS, buffer_sizes=(1000, 100_000), repeats=3),
        iterations=1,
        rounds=3,
    )
