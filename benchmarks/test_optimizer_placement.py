"""Benchmark: the cost-based optimizer against the placement baselines.

The endgame of the paper: its measurements exist so that node selection
can be automated.  This bench compares three automatic placers on
workloads with *no* user allocation sequences:

* **naive** — the paper's baseline, next available node;
* **knowledge** — hand-coded rules from the paper's observations;
* **cost-based** — the :class:`~repro.optimizer.CostBasedPlacer`, searching
  placements with the analytic model of the calibrated substrate.

The cost-based placer should match the hand-coded rules on the inbound
workload (it rediscovers Query 5's topology) and beat naive on the
intra-BlueGene merge workload, where the rules of thumb do not apply.
"""

import pytest

from repro.coordinator import Deployer, SelectorPlacement
from repro.coordinator.allocation import KnowledgeBasedSelector
from repro.core.experiments.ablations import automatic_inbound_query
from repro.engine import ExecutionSettings
from repro.hardware import Environment
from repro.optimizer import CostBasedPlacer
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query

MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg')
and a=sp(gen_array(200000,15), 'bg')
and b=sp(gen_array(200000,15), 'bg');
"""
MERGE_PAYLOAD = 2 * 200_000 * 15

INBOUND_N = 4
INBOUND_QUERY = automatic_inbound_query(INBOUND_N, 3_000_000, 5)
INBOUND_PAYLOAD = INBOUND_N * 3_000_000 * 5


def run_query(text, payload, placer_kind, settings):
    env = Environment()
    graph = QueryCompiler().compile_select(parse_query(text))
    strategy = None
    if placer_kind == "knowledge":
        strategy = SelectorPlacement(KnowledgeBasedSelector())
    elif placer_kind == "cost":
        CostBasedPlacer(env, settings).place(graph)
    report = Deployer(env).run(graph, strategy, settings)
    return payload * 8 / report.duration / 1e6


@pytest.fixture(scope="module")
def results():
    table = {}
    merge_settings = ExecutionSettings(mpi_buffer_bytes=100_000)
    inbound_settings = ExecutionSettings()
    for placer in ("naive", "knowledge", "cost"):
        table[("merge", placer)] = run_query(
            MERGE_QUERY, MERGE_PAYLOAD, placer, merge_settings
        )
        table[("inbound", placer)] = run_query(
            INBOUND_QUERY, INBOUND_PAYLOAD, placer, inbound_settings
        )
    return table


def test_optimizer_regenerates(benchmark):
    settings = ExecutionSettings(mpi_buffer_bytes=100_000)
    value = benchmark.pedantic(
        lambda: run_query(MERGE_QUERY, MERGE_PAYLOAD, "cost", settings),
        iterations=1,
        rounds=3,
    )
    assert value > 0


def test_optimizer_comparison(results):
    print()
    print("Automatic placement comparison (Mbps):")
    print(f"{'workload':>10}  {'naive':>8}  {'knowledge':>10}  {'cost-based':>11}")
    for workload in ("merge", "inbound"):
        print(
            f"{workload:>10}  {results[(workload, 'naive')]:>8.1f}  "
            f"{results[(workload, 'knowledge')]:>10.1f}  "
            f"{results[(workload, 'cost')]:>11.1f}"
        )
    # Inbound: the search matches the hand-coded knowledge rules.
    assert results[("inbound", "cost")] > 0.95 * results[("inbound", "knowledge")]
    assert results[("inbound", "cost")] > 5 * results[("inbound", "naive")]
    # Merge: the rules of thumb don't cover torus adjacency; the search does.
    assert results[("merge", "cost")] > 1.1 * results[("merge", "naive")]
    assert results[("merge", "cost")] >= 0.95 * results[("merge", "knowledge")]
