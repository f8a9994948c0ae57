"""The perf-regression gate: BENCH JSON recording and baseline comparison.

``python -m repro bench`` runs a fast, deterministic subset of the paper's
figure sweeps with flow tracing enabled and records three families of
metrics:

* ``<point>/mbps`` — mean measured bandwidth (higher is better), the
  quantity the paper's figures plot;
* ``<point>/p50_ms`` and ``<point>/p95_ms`` — per-buffer end-to-end flow
  latency percentiles in milliseconds (lower is better), from the flow
  recorder's completed records pooled over the repeats;
* ``<figure>/wall_s`` and ``<figure>/events_per_sec`` — host wall-clock
  time and simulator event throughput per figure subset (lower / higher is
  better), the quantities the DES kernel optimizations move.

The direction of a metric is carried by its name suffix, so a baseline
file stays self-describing: ``…/mbps`` regresses when it *drops* below
baseline by more than the tolerance; ``…_ms`` and ``…_s`` regress when
they *rise* (``events_per_sec`` ends in neither and is higher-is-better).

The simulated metrics are seeded (repeat k uses seed k), so on one code
revision the recorded numbers are bit-identical run to run; any drift
against a committed ``BENCH_baseline.json`` is a code change, not noise.
The wall-clock family is *host-dependent* — it varies with the machine and
its load — so it is compared under a much wider tolerance
(:data:`WALL_CLOCK_TOLERANCE_PCT`) and is best consumed as a warn-only
trend line in CI, not a hard gate.

Workflow::

    python -m repro bench --out BENCH_baseline.json       # record baseline
    python -m repro bench --baseline BENCH_baseline.json  # gate (exit 1 on
                                                          #  regression)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.measurement import PointSpec, measure_points
from repro.engine.settings import ExecutionSettings
from repro.obs.instrument import OBSERVE_FLOWS
from repro.util.stats import percentile

#: Schema version of the BENCH JSON document.
BENCH_FORMAT_VERSION = 2

#: Default regression tolerance, percent of the baseline value.
DEFAULT_TOLERANCE_PCT = 5.0

#: Tolerance for host wall-clock metrics (``…/wall_s``,
#: ``…/events_per_sec``): these vary with the machine running the bench,
#: so only a gross collapse should trip the gate.
WALL_CLOCK_TOLERANCE_PCT = 50.0


def bench_points() -> List[PointSpec]:
    """The fast figure-sweep subset the gate measures, keyed by point name
    (``"fig6[B=200,double]"``; :func:`figure_of_metric` names its figure).

    One point per mechanism the repo models: packet quantisation (fig6
    small vs large buffers), intermediate-co-processor routing (fig8
    sequential vs balanced), and the Ethernet ingress with and without
    I/O-node sharing (fig15 Q5 at n=4 vs n=5, Q1 at n=2).
    """
    points: List[PointSpec] = []
    for buffer_bytes in (200, 1000, 100_000):
        array_bytes, count = scaled_workload(buffer_bytes, target_buffers=120)
        points.append(PointSpec(
            key=f"fig6[B={buffer_bytes},double]",
            query=point_to_point_query(array_bytes, count),
            payload_bytes=array_bytes * count,
            settings=ExecutionSettings(
                mpi_buffer_bytes=buffer_bytes, double_buffering=True
            ),
        ))
    array_bytes, count = scaled_workload(100_000, target_buffers=120)
    for label, (x, y) in (("seq", SEQUENTIAL), ("bal", BALANCED)):
        points.append(PointSpec(
            key=f"fig8[B=100000,{label},double]",
            query=merge_query(array_bytes, count, x, y),
            payload_bytes=2 * array_bytes * count,
            settings=ExecutionSettings(
                mpi_buffer_bytes=100_000, double_buffering=True
            ),
        ))
    for query_number, n in ((1, 2), (5, 4), (5, 5)):
        points.append(PointSpec(
            key=f"fig15[Q{query_number},n={n}]",
            query=inbound_query(query_number, n, 300_000, 3),
            payload_bytes=n * 300_000 * 3,
            settings=ExecutionSettings(),
        ))
    return points


#: Figure names run_bench() can produce (the sweep subsets plus the
#: kernel-scale and adaptive-runtime figures); the bench CLI's ``--only``
#: validates against this.
BENCH_FIGURES = ("fig6", "fig8", "fig15", "scale", "adaptive")


def run_bench(
    repeats: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    figures: Optional[Iterable[str]] = None,
    scale_shape: Optional[Tuple[int, int, int]] = None,
) -> Dict[str, float]:
    """Measure every bench point; returns the flat metric mapping.

    Each figure's points run as one
    :func:`~repro.core.measurement.measure_points` sweep, so with
    ``jobs > 1`` its (point, repeat) simulations fan out over worker
    processes; the simulated metrics (mbps, latency percentiles) are
    bit-identical either way.  The wall-clock family then measures the
    *parallel* harness, so baselines should be recorded at the same
    ``jobs`` they are gated at.

    ``figures`` restricts the run to a subset of :data:`BENCH_FIGURES`
    (``None`` runs everything); ``scale_shape`` overrides the scale
    figure's torus (CI smoke runs a reduced 8x8x8).
    """
    if figures is not None:
        figures = set(figures)
        unknown = figures - set(BENCH_FIGURES)
        if unknown:
            raise ValueError(
                f"unknown bench figure(s) {sorted(unknown)}; "
                f"expected a subset of {list(BENCH_FIGURES)}"
            )
    metrics: Dict[str, float] = {}
    sweeps: Dict[str, List[PointSpec]] = {}
    for point in bench_points():
        figure = figure_of_metric(point.key)
        if figures is None or figure in figures:
            sweeps.setdefault(figure, []).append(point)
    for figure, points in sweeps.items():
        started = time.perf_counter()
        results = measure_points(
            points, repeats=repeats, jobs=jobs, observe=OBSERVE_FLOWS
        )
        wall = time.perf_counter() - started
        events = 0.0
        for point in points:
            result = results[point.key]
            events += sum(
                report.metrics.counter("sim.events_processed")
                for report in result.reports
            )
            latencies = result.flow_latencies()
            metrics[f"{point.key}/mbps"] = result.mean_mbps
            if latencies:
                metrics[f"{point.key}/p50_ms"] = percentile(latencies, 50.0) * 1e3
                metrics[f"{point.key}/p95_ms"] = percentile(latencies, 95.0) * 1e3
            if progress is not None:
                progress(f"{point.key}: {result.mean_mbps:.1f} Mbps, "
                         f"{len(latencies)} flows")
        metrics[f"{figure}/wall_s"] = wall
        if wall > 0.0:
            metrics[f"{figure}/events_per_sec"] = events / wall
        if progress is not None:
            progress(f"{figure}: {len(points)} point(s), {wall:.2f} s wall")
    if figures is None or "scale" in figures:
        # Imported here: the scale experiment pulls in the multiquery
        # session machinery, which the figure-sweep subsets don't need.
        from repro.core.experiments.scale import DEFAULT_SHAPE, run_scale

        scale_result = run_scale(
            shape=scale_shape if scale_shape is not None else DEFAULT_SHAPE,
            progress=progress,
        )
        metrics.update(scale_result.metrics())
    if figures is None or "adaptive" in figures:
        from repro.core.experiments.adaptive import (
            ADAPTIVE_POINTS,
            run_adaptive_point,
        )

        started = time.perf_counter()
        for point_name in ADAPTIVE_POINTS:
            comparison = run_adaptive_point(point_name, smoke=True)
            tag = f"adaptive[{point_name}]"
            metrics[f"{tag}/static_mbps"] = comparison.static_mbps
            metrics[f"{tag}/adaptive_mbps"] = comparison.adaptive_mbps
            metrics[f"{tag}/recover_s"] = comparison.recover_s
            metrics[f"{tag}/migrations"] = float(len(comparison.migrations))
            if progress is not None:
                progress(
                    f"{tag}: {comparison.static_mbps:.1f} -> "
                    f"{comparison.adaptive_mbps:.1f} Mbps "
                    f"(x{comparison.speedup:.2f}, "
                    f"{len(comparison.migrations)} migration(s))"
                )
        metrics["adaptive/wall_s"] = time.perf_counter() - started
    return metrics


# ----------------------------------------------------------------------
# BENCH JSON round trip
# ----------------------------------------------------------------------
def bench_document(metrics: Dict[str, float], repeats: int,
                   series: Optional[Dict[str, dict]] = None) -> dict:
    document = {
        "version": BENCH_FORMAT_VERSION,
        "repeats": repeats,
        "metrics": metrics,
    }
    if series:
        # Windowed live-telemetry series (per query/round p50/p95/p99,
        # throughput, health events).  Informational: load_bench reads
        # only "metrics", so the regression gate stays on the scalars.
        document["series"] = series
    return document


def write_bench(path: str, metrics: Dict[str, float], repeats: int,
                series: Optional[Dict[str, dict]] = None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bench_document(metrics, repeats, series), handle,
                  indent=2, sort_keys=True)
        handle.write("\n")


def load_bench(path: str) -> Dict[str, float]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("version")
    if version != BENCH_FORMAT_VERSION:
        raise ValueError(
            f"unsupported BENCH format version {version!r} in {path} "
            f"(expected {BENCH_FORMAT_VERSION})"
        )
    return {str(k): float(v) for k, v in document["metrics"].items()}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def figure_of_metric(metric_name: str) -> str:
    """The figure a metric belongs to.

    ``"fig6[B=200,double]/mbps"`` and ``"fig6/wall_s"`` both map to
    ``"fig6"``; the bench CLI uses this to subset a committed baseline
    when gating a ``--only`` run.
    """
    return metric_name.split("[", 1)[0].split("/", 1)[0]


def higher_is_better(metric_name: str) -> bool:
    """Metric direction by name suffix: bandwidth and throughput up,
    latency and wall time down.

    ``…_ms`` and ``…_s`` are durations (lower is better); everything else
    — ``…/mbps``, ``…/events_per_sec`` — is a rate (higher is better).
    """
    return not (metric_name.endswith("_ms") or metric_name.endswith("_s"))


def is_wall_clock(metric_name: str) -> bool:
    """Whether a metric measures host time (noisy) rather than simulated
    behaviour (deterministic)."""
    return metric_name.endswith("/wall_s") or metric_name.endswith("/events_per_sec")


@dataclass(frozen=True)
class MetricDelta:
    """Comparison of one metric against the baseline."""

    name: str
    baseline: float
    current: Optional[float]
    tolerance_pct: float

    @property
    def delta_pct(self) -> Optional[float]:
        """Signed change in percent of baseline (positive = increased)."""
        if self.current is None or self.baseline == 0.0:
            return None
        return 100.0 * (self.current - self.baseline) / abs(self.baseline)

    @property
    def regressed(self) -> bool:
        if self.current is None:
            return True  # the metric disappeared: treat as a regression
        margin = abs(self.baseline) * self.tolerance_pct / 100.0
        if higher_is_better(self.name):
            return self.current < self.baseline - margin
        return self.current > self.baseline + margin

    def describe(self) -> str:
        direction = "higher=better" if higher_is_better(self.name) else "lower=better"
        if self.current is None:
            return f"{self.name}: MISSING from current run (baseline {self.baseline:g})"
        verdict = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.name}: {self.baseline:g} -> {self.current:g} "
            f"({self.delta_pct:+.2f}%, {direction}, "
            f"tol {self.tolerance_pct:g}%) {verdict}"
        )


def compare_bench(
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
    wall_clock_tolerance_pct: float = WALL_CLOCK_TOLERANCE_PCT,
) -> Tuple[List[MetricDelta], List[str]]:
    """Compare a run against a baseline.

    Simulated metrics are gated at ``tolerance_pct``; wall-clock metrics
    (:func:`is_wall_clock`) at the much wider ``wall_clock_tolerance_pct``
    since they depend on the host running the bench.

    Returns:
        ``(deltas, new_metrics)``: one delta per baseline metric (missing
        current values count as regressions), plus the names of metrics
        present only in the current run (informational — a widened sweep
        is not a regression, but the baseline should be re-recorded).
    """
    deltas = [
        MetricDelta(
            name=name,
            baseline=value,
            current=current.get(name),
            tolerance_pct=(
                wall_clock_tolerance_pct if is_wall_clock(name) else tolerance_pct
            ),
        )
        for name, value in sorted(baseline.items())
    ]
    new_metrics = sorted(set(current) - set(baseline))
    return deltas, new_metrics


def format_comparison(deltas: List[MetricDelta], new_metrics: List[str]) -> str:
    lines = [delta.describe() for delta in deltas]
    for name in new_metrics:
        lines.append(f"{name}: new metric (not in baseline)")
    regressions = sum(1 for d in deltas if d.regressed)
    lines.append(
        f"=> {regressions} regression(s) across {len(deltas)} baseline metric(s)"
        if regressions
        else f"=> no regressions across {len(deltas)} baseline metric(s)"
    )
    return "\n".join(lines)
