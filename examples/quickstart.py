#!/usr/bin/env python3
"""Quickstart: submit your first SCSQL continuous queries.

Creates a simulated LOFAR-style environment (BlueGene partition + Linux
clusters), runs the paper's basic point-to-point measurement query, and
shows how buffer sizes and buffering modes change streaming bandwidth.

Run:  python examples/quickstart.py
"""

from repro import ExecutionSettings, SCSQSession
from repro.util.units import MEGA

POINT_TO_POINT = """
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and a=sp(gen_array(3000000,10), 'bg', 1);
"""

PARALLEL_SPV = """
select count(merge(a)) from bag of sp a, integer n
where a=spv(
  (select gen_array(1000000,5)
   from integer i where i in iota(1,n)),
  'bg')
and n=4;
"""


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``)."""
    return [("point-to-point", POINT_TO_POINT), ("parallel-spv", PARALLEL_SPV)]


def main() -> None:
    session = SCSQSession()
    print("Environment:", session.env)
    print()

    # --- 1. A first continuous query -----------------------------------
    # Stream process a generates ten 3 MB arrays on BlueGene compute node 1;
    # b counts them on node 0.  Only the count leaves the BlueGene.
    query = POINT_TO_POINT
    report = session.execute(query)
    print("count(extract(a)) =", report.scalar_result)
    print(f"simulated query time: {report.duration * 1e3:.2f} ms")
    print("stream process placements:")
    for sp_id, node in sorted(report.rp_placements.items()):
        print(f"  {sp_id:>24} -> {node}")
    print()

    # --- 2. The same query as a bandwidth measurement ------------------
    payload = 3_000_000 * 10
    for buffer_bytes in (100, 1000, 100_000):
        for double in (False, True):
            settings = ExecutionSettings(
                mpi_buffer_bytes=buffer_bytes, double_buffering=double
            )
            fresh = SCSQSession()
            result = fresh.execute(query, settings)
            mbps = payload * 8 / result.duration / MEGA
            mode = "double" if double else "single"
            print(
                f"buffer {buffer_bytes:>7} B, {mode} buffering: "
                f"{mbps:7.1f} Mbps"
            )
    print()
    print("Note the optimum at 1000 bytes — the minimum BlueGene torus")
    print("message size — and the cache-miss drop-off above it (Figure 6).")

    # --- 3. Parallelism with spv() --------------------------------------
    parallel = SCSQSession()
    report = parallel.execute(PARALLEL_SPV)
    print()
    print("4 parallel generators produced", report.scalar_result, "arrays")


if __name__ == "__main__":
    main()
