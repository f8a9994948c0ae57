"""Benchmark: regenerate Figure 6 (intra-BG point-to-point bandwidth).

Runs the full buffer-size sweep for single and double buffering, prints the
figure's series, and asserts the published shape:

* optimum at 1000 bytes for both buffering modes,
* degradation below (packet padding) and above (cache misses) the knee,
* double buffering paying off for large buffers.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG6,) = FIGURES["fig6"]

BUFFER_SIZES = (100, 200, 500, 1000, 2000, 5000, 10_000, 50_000, 200_000, 1_000_000)


@pytest.fixture(scope="module")
def fig6_result():
    return run_sweep(FIG6, buffer_sizes=BUFFER_SIZES, repeats=3, target_buffers=800)


def test_fig6_regenerates(benchmark, fig6_result):
    result = benchmark.pedantic(
        lambda: run_sweep(FIG6, buffer_sizes=(1000,), repeats=3, target_buffers=800),
        iterations=1,
        rounds=3,
    )
    assert result.best(double_buffering=True)[0].buffer_bytes == 1000


def test_fig6_shape_holds(fig6_result):
    print()
    print(fig6_result.format_table())
    # Optimal buffer size is 1000 bytes for both modes.
    assert fig6_result.best(double_buffering=False)[0].buffer_bytes == 1000
    assert fig6_result.best(double_buffering=True)[0].buffer_bytes == 1000
    single, double = (
        {
            key.buffer_bytes: point.mean_mbps
            for key, point in fig6_result.curve(double_buffering=mode)
        }
        for mode in (False, True)
    )
    # Rising left flank, dropping right flank.
    assert single[100] < single[500] < single[1000]
    assert double[100] < double[500] < double[1000]
    assert single[5000] < single[1000]
    assert double[5000] < double[1000]
    # Double buffering pays off for large buffers...
    assert double[1_000_000] > 1.15 * single[1_000_000]
    # ...but not for small ones.
    assert double[100] < 1.1 * single[100]
