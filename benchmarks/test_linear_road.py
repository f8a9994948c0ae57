"""Benchmark extension: mini Linear Road throughput vs parallelism.

The paper's future work (§5): evaluate with "benchmarks such as The Linear
Road Benchmark" and "analyze the performance of continuous queries
involving expensive functions".  This bench runs the per-segment
congestion pipeline at increasing segment parallelism and reports report-
processing throughput, verifying the toll results against the reference
computation at every scale.
"""

import pytest

from repro.scsql.session import SCSQSession
from repro.workloads.linear_road import (
    CONGESTION_SPEED,
    Accident,
    expected_congested_windows,
    partition_by_segment,
    position_reports,
    segment_speeds,
)

WINDOW = 20
TICKS = 200
VEHICLES_PER_SEGMENT = 6


def run_pipeline(n_segments: int) -> dict:
    reports = position_reports(
        VEHICLES_PER_SEGMENT * n_segments,
        n_segments,
        TICKS,
        seed=11,
        accident=Accident(segment=0, start_tick=40, end_tick=160),
    )
    partitions = partition_by_segment(reports, n_segments)
    session = SCSQSession()
    for segment, rows in partitions.items():
        speeds = segment_speeds(rows)
        session.register_source(f"lr-seg-{segment}", lambda s=speeds: iter(s))
    decls = ", ".join(f"sp s{i}" for i in range(n_segments))
    conjuncts = " and ".join(
        f"s{i}=sp(below(winagg(receiver('lr-seg-{i}'), 'avg', {WINDOW}, {WINDOW}),"
        f" {CONGESTION_SPEED}), 'bg', psetrr())"
        for i in range(n_segments)
    )
    merge_set = "{" + ", ".join(f"s{i}" for i in range(n_segments)) + "}"
    query = f"select merge({merge_set}) from {decls} where {conjuncts};"
    report = session.execute(query)
    expected = sum(
        expected_congested_windows(segment_speeds(rows), WINDOW)
        for rows in partitions.values()
    )
    return {
        "tolls": len(report.result),
        "expected": expected,
        "reports": len(reports),
        "duration": report.duration,
    }


@pytest.fixture(scope="module")
def sweep():
    return {n: run_pipeline(n) for n in (1, 2, 4, 8)}


def test_linear_road_regenerates(benchmark):
    result = benchmark.pedantic(lambda: run_pipeline(4), iterations=1, rounds=3)
    assert result["tolls"] == result["expected"]


def test_linear_road_scaling(sweep):
    print()
    print("Mini Linear Road: congestion pipeline throughput")
    print(f"{'segments':>9}  {'reports':>8}  {'tolls':>6}  {'ms':>8}  {'reports/s':>12}")
    for n, row in sweep.items():
        rate = row["reports"] / row["duration"]
        print(
            f"{n:>9}  {row['reports']:>8}  {row['tolls']:>6}  "
            f"{row['duration'] * 1e3:>8.2f}  {rate:>12.0f}"
        )
        # Correctness at every scale.
        assert row["tolls"] == row["expected"]
        assert row["tolls"] > 0  # the accident must be detected
    # Parallel segments process a proportionally larger report volume in
    # comparable time: throughput grows with parallelism.
    rate_1 = sweep[1]["reports"] / sweep[1]["duration"]
    rate_8 = sweep[8]["reports"] / sweep[8]["duration"]
    assert rate_8 > 3 * rate_1
