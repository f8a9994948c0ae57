"""Benchmark extension: time the smallest partition of the scaling study;
``test_claims.py`` checks the extension's answers to section 5's open
question."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(SCALING,) = FIGURES["scaling"]


def test_scaling_regenerates(benchmark):
    benchmark.pedantic(
        lambda: run_sweep(
            SCALING, partitions=(((4, 4, 2), 4),), uplinks_gbps=(1.0,), repeats=2,
            array_count=4,
        ),
        iterations=1,
        rounds=3,
    )
