"""A miniature Linear Road workload.

The paper's future work (§5): "Further measurements could be made using
benchmarks such as The Linear Road Benchmark."  This module provides a
scaled-down, deterministic Linear-Road-style workload: vehicles drive along
a segmented expressway emitting position reports ``(tick, vehicle, segment,
speed)``; an optional *accident* depresses speeds in one segment for a time
span, which the monitoring queries must detect (congestion => toll).

Reports are pre-partitioned by segment — matching both Linear Road's
per-segment detectors and SCSQ's parallelize-by-construction model (one
stream process per segment, as the paper parallelizes by receiver).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.util.errors import QueryExecutionError
from repro.util.record import Frozen

#: A position report: (tick, vehicle id, segment, speed in mph).
PositionReport = Tuple[int, int, int, float]

FREE_FLOW_SPEED = 60.0
ACCIDENT_SPEED = 15.0
#: Linear Road's congestion rule of thumb: tolls below 40 mph average.
CONGESTION_SPEED = 40.0


class Accident(Frozen):
    """A speed-depressing incident in one segment over a tick range."""

    segment: int
    start_tick: int
    end_tick: int
    __slots__ = ("segment", "start_tick", "end_tick")

    def __init__(self, segment: int, start_tick: int, end_tick: int) -> None:
        self._set_fields(segment, start_tick, end_tick)

    def covers(self, segment: int, tick: int) -> bool:
        return segment == self.segment and self.start_tick <= tick < self.end_tick


def position_reports(
    n_vehicles: int,
    n_segments: int,
    ticks: int,
    seed: int = 0,
    accident: Optional[Accident] = None,
    max_reports: Optional[int] = None,
) -> List[PositionReport]:
    """Generate the full report stream, ordered by tick then vehicle.

    Vehicles cycle through the segments at one segment per ~4 ticks and
    report every tick; speeds are free-flow with seeded noise, or accident
    speed inside an accident's span.

    ``max_reports`` rate-limits the stream: generation stops after that
    many reports (``0`` yields an empty stream).  The generated prefix is
    identical to the unlimited stream's — the cap truncates, it does not
    re-seed — so a rate-limited run is a prefix of the full run.
    """
    if n_vehicles < 1 or n_segments < 1 or ticks < 1:
        raise QueryExecutionError(
            f"need at least one vehicle/segment/tick, got "
            f"{n_vehicles}/{n_segments}/{ticks}"
        )
    if max_reports is not None and max_reports < 0:
        raise QueryExecutionError(
            f"max_reports must be >= 0, got {max_reports}"
        )
    rng = random.Random(seed)
    offsets = [rng.randrange(n_segments * 4) for _ in range(n_vehicles)]
    reports: List[PositionReport] = []
    for tick in range(ticks):
        for vid in range(n_vehicles):
            if max_reports is not None and len(reports) >= max_reports:
                return reports
            segment = ((tick + offsets[vid]) // 4) % n_segments
            if accident is not None and accident.covers(segment, tick):
                speed = ACCIDENT_SPEED + rng.uniform(-3.0, 3.0)
            else:
                speed = FREE_FLOW_SPEED + rng.uniform(-5.0, 5.0)
            reports.append((tick, vid, segment, round(speed, 2)))
    return reports


def partition_by_segment(
    reports: List[PositionReport], n_segments: int
) -> Dict[int, List[PositionReport]]:
    """Split the report stream into per-segment detector streams."""
    partitions: Dict[int, List[PositionReport]] = {s: [] for s in range(n_segments)}
    for report in reports:
        partitions[report[2]].append(report)
    return partitions


def segment_speeds(reports: List[PositionReport]) -> List[float]:
    """The speed column of a (single-segment) report stream."""
    return [report[3] for report in reports]


def expected_congested_windows(speeds: List[float], window: int) -> int:
    """Reference result: tumbling-window averages below the toll threshold
    (:data:`CONGESTION_SPEED`)."""
    congested = 0
    for start in range(0, len(speeds) - window + 1, window):
        mean = sum(speeds[start : start + window]) / window
        if mean < CONGESTION_SPEED:
            congested += 1
    return congested
