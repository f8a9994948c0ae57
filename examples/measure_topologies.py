#!/usr/bin/env python3
"""Measure communication topologies with stream queries — the paper's core idea.

Runs scaled-down versions of all three measured figures and prints the
tables, then uses what was learned to compare the naive and knowledge-based
node selection algorithms (the paper's stated purpose for the
measurements).

Run:  python examples/measure_topologies.py [--full | --smoke]

``--full`` runs the paper-scale sweeps (several minutes); the default
scaled-down run finishes in well under a minute; ``--smoke`` runs every
sweep with a single repeat (CI's examples job).
"""

import sys
import time

from repro.core.experiments import FIGURES
from repro.core.experiments.fig8 import balanced_advantage
from repro.core.measurement import run_sweep


def scsql_queries():
    """One query per measured topology, at the example's scaled-down sizes;
    the test suite verifies them statically (``tests/analysis/test_cli.py``;
    the full grids, ``tests/core/test_measurement.py``)."""
    from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
    from repro.core.experiments.fig8 import BALANCED, merge_query
    from repro.core.experiments.fig15 import inbound_query

    array_bytes, count = scaled_workload(1000, 300)
    x, y = BALANCED
    return [
        ("fig6", point_to_point_query(array_bytes, count)),
        ("fig8-balanced", merge_query(array_bytes, count, x, y)),
        ("fig15-q5", inbound_query(5, 4, 3_000_000, 5)),
    ]


def main() -> None:
    full = "--full" in sys.argv
    repeats = 5 if full else (1 if "--smoke" in sys.argv else 2)

    def measure(sweep):
        """The paper-scale sweep (the builder's defaults) with ``--full``,
        else the scaled-down one the ``--quick`` figure commands run."""
        return run_sweep(sweep, repeats=repeats, **({} if full else sweep.quick))

    start = time.time()
    fig6 = measure(FIGURES["fig6"][0])
    print(fig6.format_table())
    print(
        f"-> optimal buffer: single={fig6.best(double_buffering=False)[0].buffer_bytes} B, "
        f"double={fig6.best(double_buffering=True)[0].buffer_bytes} B"
    )
    print()

    fig8 = measure(FIGURES["fig8"][0])
    print(fig8.format_table())
    print(f"-> balanced/sequential advantage: {balanced_advantage(fig8):.2f}x")
    print()

    fig15 = measure(FIGURES["fig15"][0])
    print(fig15.format_table())
    peak, result = fig15.best(query_number=5)
    print(f"-> Query 5 peaks at {result.mean_mbps:.0f} Mbps (n={peak.n})")
    print()

    for sweep in FIGURES["ablations"]:
        ablation = measure(sweep)
        print(ablation.format_table())
        if sweep.headline is not None:
            print(sweep.headline(ablation))
        print()
    print(f"total wall time: {time.time() - start:.1f} s")


if __name__ == "__main__":
    main()
