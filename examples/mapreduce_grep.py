#!/usr/bin/env python3
"""The paper's distributed grep mapreduce query (section 2.4).

"The distributed grep mapreduce query using 1000 parallel grep calls is
specified in SCSQL as follows:

    merge(spv(
        select grep("pattern", filename(i))
        from integer i
        where i in iota(1,1000)));
"

Each grep subquery runs in its own stream process on the back-end cluster;
``merge()`` is the (empty) reduce step.  The corpus here is synthetic —
each virtual file plants a known marker pattern — so the result count is
verifiable.

Run:  python examples/mapreduce_grep.py [n_files]
"""

import sys
import time

from repro import SCSQSession
from repro.workloads import corpus


def grep_query(pattern: str, n_files: int) -> str:
    """The paper's mapreduce query: the reduce is the identity (merge)."""
    return f"""
    select merge(g) from bag of sp g
    where g=spv(
      (select grep('{pattern}', filename(i))
       from integer i where i in iota(1,{n_files})),
      'be', urr('be'));
    """


def count_query(pattern: str, n_files: int) -> str:
    """A count-only variant: the reduce aggregates instead of concatenating."""
    return f"""
    select count(merge(g)) from bag of sp g
    where g=spv(
      (select grep('{pattern}', filename(i))
       from integer i where i in iota(1,{n_files})),
      'be', urr('be'));
    """


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``)."""
    return [
        ("grep", grep_query(corpus.MARKER, 100)),
        ("grep-count", count_query(corpus.MARKER, 100)),
    ]


def main() -> None:
    n_files = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    session = SCSQSession()

    print(f"distributed grep over {n_files} files, pattern {corpus.MARKER!r}")
    wall = time.time()
    report = session.execute(grep_query(corpus.MARKER, n_files))
    wall = time.time() - wall

    expected = n_files * corpus.expected_marker_count()
    print(f"matched lines: {len(report.result)} (expected {expected})")
    assert len(report.result) == expected, "corpus invariant violated"
    print("sample matches:")
    for line in report.result[:3]:
        print("   ", line)
    print(f"simulated time: {report.duration * 1e3:.2f} ms; wall time: {wall:.2f} s")

    placements = {
        node for sp, node in report.rp_placements.items() if sp.startswith("g")
    }
    print(f"grep processes spread over {len(placements)} back-end nodes: "
          f"{sorted(placements)}")

    # A count-only variant: the reduce aggregates instead of concatenating.
    report = session.execute(count_query(corpus.MARKER, n_files))
    print("count(merge(...)) =", report.scalar_result)


if __name__ == "__main__":
    main()
