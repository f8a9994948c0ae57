"""Benchmark ablation: optimal buffer size per communication pattern.

Paper section 5: "The optimal stream buffer size for MPI communication
inside BlueGene was highly dependent on whether point-to-point or merging
stream communication was performed.  In general, the buffer should be much
larger in the case of stream merging."
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.ablations import optimal_buffer
from repro.core.measurement import run_sweep

_SELECTOR, BUFFERS = FIGURES["ablations"]

BUFFER_SIZES = (500, 1000, 2000, 10_000, 100_000, 1_000_000)


@pytest.fixture(scope="module")
def ablation_result():
    return run_sweep(BUFFERS, buffer_sizes=BUFFER_SIZES, repeats=3)


def test_buffer_choice_regenerates(benchmark):
    result = benchmark.pedantic(
        lambda: run_sweep(BUFFERS, buffer_sizes=(1000, 100_000), repeats=3),
        iterations=1,
        rounds=3,
    )
    assert optimal_buffer(result, "p2p") == 1000


def test_patterns_want_different_buffers(ablation_result):
    print()
    print(ablation_result.format_table())
    print(BUFFERS.headline(ablation_result))
    assert optimal_buffer(ablation_result, "p2p") == 1000
    assert optimal_buffer(ablation_result, "merge") >= 10_000
    # The merge penalty of small buffers is dramatic, not marginal.
    small = ablation_result.at("merge", 1000).mean_mbps
    assert small < 0.5 * ablation_result.at("merge", 100_000).mean_mbps
