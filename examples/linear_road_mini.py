#!/usr/bin/env python3
"""A miniature Linear Road benchmark as SCSQL continuous queries.

The paper's future work (§5) proposes evaluating SCSQ with "benchmarks such
as The Linear Road Benchmark".  This example runs a scaled-down Linear
Road: vehicles stream position reports; per-segment stream processes
compute tumbling-window average speeds on BlueGene nodes; segments whose
average drops below 40 mph are *congested* and incur tolls; an accident in
one segment must be detected.  Results are verified against a plain-Python
reference computation.

Run:  python examples/linear_road_mini.py
"""

from repro import SCSQSession
from repro.workloads.linear_road import (
    CONGESTION_SPEED,
    Accident,
    expected_congested_windows,
    partition_by_segment,
    position_reports,
    segment_speeds,
)

N_VEHICLES = 24
N_SEGMENTS = 6
TICKS = 120
WINDOW = 20
ACCIDENT = Accident(segment=2, start_tick=30, end_tick=90)


def congestion_query(n_segments: int) -> str:
    """Per-segment window averages, filtered below the toll threshold.

    One stream process per segment detector (spread over BlueGene psets),
    each computing tumbling-window average speeds and keeping only the
    congested windows; the client manager merges the toll events.
    """
    decls = ", ".join(f"sp s{i}" for i in range(n_segments))
    conjuncts = " and ".join(
        f"s{i}=sp(below(winagg(receiver('segment-{i}'), 'avg', {WINDOW}, {WINDOW}),"
        f" {CONGESTION_SPEED}), 'bg', psetrr())"
        for i in range(n_segments)
    )
    merge_set = "{" + ", ".join(f"s{i}" for i in range(n_segments)) + "}"
    return f"select merge({merge_set}) from {decls} where {conjuncts};"


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``)."""
    return [("congestion", congestion_query(N_SEGMENTS))]


def main() -> None:
    reports = position_reports(
        N_VEHICLES, N_SEGMENTS, TICKS, seed=7, accident=ACCIDENT
    )
    partitions = partition_by_segment(reports, N_SEGMENTS)
    print(
        f"{len(reports)} position reports from {N_VEHICLES} vehicles over "
        f"{N_SEGMENTS} segments; accident in segment {ACCIDENT.segment} "
        f"(ticks {ACCIDENT.start_tick}-{ACCIDENT.end_tick})"
    )

    session = SCSQSession()
    for segment, rows in partitions.items():
        speeds = segment_speeds(rows)
        session.register_source(f"segment-{segment}", lambda s=speeds: iter(s))
    report = session.execute(congestion_query(N_SEGMENTS))

    tolls = report.result
    expected = sum(
        expected_congested_windows(segment_speeds(rows), WINDOW)
        for rows in partitions.values()
    )
    print(f"congested windows (toll events): {len(tolls)} (expected {expected})")
    assert len(tolls) == expected, "query diverged from the reference computation"
    assert all(speed < CONGESTION_SPEED for speed in tolls)
    print(f"slowest congested window average: {min(tolls):.1f} mph")
    print(f"simulated time: {report.duration * 1e3:.3f} ms")
    placements = {
        sp.split("@")[0]: node
        for sp, node in report.rp_placements.items()
        if sp.startswith("s")
    }
    psets = {node: int(node.split(":")[1]) // 8 for node in placements.values()}
    print(f"segment detectors spread over psets: {sorted(set(psets.values()))}")


if __name__ == "__main__":
    main()
