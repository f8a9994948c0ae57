"""Benchmark ablation: naive vs knowledge-based automatic node selection.

The paper's conclusions: "We are currently experimenting with refinements
of the node selection algorithm for the BlueGene based on the results of
this paper."  This ablation quantifies that refinement: the same inbound
workload with *no* allocation sequences, placed by the naive next-available
selector versus the knowledge-based selector built from observations (1)
and (3) — spread BlueGene receivers over psets, co-locate back-end senders.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.ablations import improvement
from repro.core.measurement import run_sweep

SELECTOR, _BUFFERS = FIGURES["ablations"]


@pytest.fixture(scope="module")
def ablation_result():
    return run_sweep(SELECTOR, stream_counts=(2, 4, 6, 8), repeats=3, count=5)


def test_node_selection_regenerates(benchmark):
    result = benchmark.pedantic(
        lambda: run_sweep(SELECTOR, stream_counts=(4,), repeats=3, count=5),
        iterations=1,
        rounds=3,
    )
    assert improvement(result, 4) > 2.0


def test_knowledge_based_selection_wins(ablation_result):
    print()
    print(ablation_result.format_table())
    for n in (2, 4, 6, 8):
        assert improvement(ablation_result, n) > 1.5
    # The gain is largest exactly where naive placement funnels everything
    # through one I/O node from many hosts.
    assert improvement(ablation_result, 4) > 5.0
