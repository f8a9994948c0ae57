"""Benchmark: regenerate Figure 8 (merge bandwidth by node selection).

Runs the buffer sweep for the sequential (through a busy intermediate
co-processor) and balanced node selections, with single and double
buffering, prints the figure's series, and asserts the published shape.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.fig8 import balanced_advantage
from repro.core.measurement import run_sweep

(FIG6,), (FIG8,) = FIGURES["fig6"], FIGURES["fig8"]

BUFFER_SIZES = (1000, 2000, 5000, 10_000, 50_000, 200_000, 1_000_000)


@pytest.fixture(scope="module")
def fig8_result():
    return run_sweep(FIG8, buffer_sizes=BUFFER_SIZES, repeats=3, target_buffers=600)


def test_fig8_regenerates(benchmark, fig8_result):
    result = benchmark.pedantic(
        lambda: run_sweep(
            FIG8, buffer_sizes=(200_000,), repeats=3, target_buffers=600
        ),
        iterations=1,
        rounds=3,
    )
    assert balanced_advantage(result) > 1.3


def test_fig8_shape_holds(fig8_result):
    print()
    print(fig8_result.format_table())
    # (1) Bandwidth depends highly on node allocation: balanced wins by
    #     up to ~60% (paper section 5).
    advantage = balanced_advantage(fig8_result, double_buffering=True)
    assert 1.4 <= advantage <= 1.9
    # (2) Double buffering is less significant than for point-to-point.
    fig6 = run_sweep(FIG6, buffer_sizes=(1_000_000,), repeats=3, target_buffers=600)
    p2p_gain = fig6.at(1_000_000, True).mean_mbps / fig6.at(1_000_000, False).mean_mbps
    merge_single, merge_double = (
        fig8_result.best(balanced=True, double_buffering=mode)[1].mean_mbps
        for mode in (False, True)
    )
    assert merge_double / merge_single < p2p_gain
    # (3) Buffers below 10K are much slower for merging than larger ones.
    balanced = {
        key.buffer_bytes: point.mean_mbps
        for key, point in fig8_result.curve(balanced=True, double_buffering=True)
    }
    assert balanced[1000] < 0.5 * balanced[200_000]
    assert balanced[2000] < 0.7 * balanced[200_000]
