#!/usr/bin/env python3
"""The cost-based query optimizer in action.

The paper measured communication topologies "to provide a basis for
automatic CPU allocation strategies".  This example closes that loop: the
same queries, with *no* allocation sequences, placed three ways —

* naive next-available selection (the paper's baseline),
* the hand-coded knowledge rules from the paper's observations,
* the cost-based search over the calibrated analytic model —

and measured.  The optimizer rediscovers the balanced merge topology of
Figure 7B and the Query 5 inbound shape on its own.

Run:  python examples/optimize_placement.py
"""

from repro import CostBasedPlacer, Environment, ExecutionSettings
from repro.coordinator import Deployer, SelectorPlacement
from repro.coordinator.allocation import KnowledgeBasedSelector
from repro.core.experiments.ablations import automatic_inbound_query
from repro.scsql.compiler import QueryCompiler
from repro.scsql.parser import parse_query

MERGE_QUERY = """
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({a,b})), 'bg')
and a=sp(gen_array(200000,15), 'bg')
and b=sp(gen_array(200000,15), 'bg');
"""

INBOUND_QUERY = automatic_inbound_query(4, 3_000_000, 5)


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``)."""
    return [("intra-bg-merge", MERGE_QUERY), ("inbound-n4", INBOUND_QUERY)]


def measure(query_text, payload_bytes, placer, settings):
    env = Environment()
    graph = QueryCompiler().compile_select(parse_query(query_text))
    strategy = None
    chosen = None
    if placer == "knowledge":
        strategy = SelectorPlacement(KnowledgeBasedSelector())
    elif placer == "cost-based":
        chosen = CostBasedPlacer(env, settings).place(graph)
    report = Deployer(env).run(graph, strategy, settings)
    mbps = payload_bytes * 8 / report.duration / 1e6
    return mbps, chosen, report


def main() -> None:
    workloads = [
        ("intra-BG merge", MERGE_QUERY, 2 * 200_000 * 15,
         ExecutionSettings(mpi_buffer_bytes=100_000)),
        ("inbound n=4", INBOUND_QUERY, 4 * 3_000_000 * 5, ExecutionSettings()),
    ]
    for name, query, payload, settings in workloads:
        print(f"=== {name} (no allocation sequences) ===")
        for placer in ("naive", "knowledge", "cost-based"):
            mbps, chosen, report = measure(query, payload, placer, settings)
            print(f"  {placer:>11}: {mbps:7.1f} Mbps")
            if chosen:
                readable = {sp.split("@")[0]: node for sp, node in chosen.items()}
                print(f"               placement: {readable}")
        print()
    print("The cost-based search derives the paper's topologies from the")
    print("calibrated model: producers adjacent to the merger on independent")
    print("torus links; inbound senders co-located, receivers spread psets.")


if __name__ == "__main__":
    main()
