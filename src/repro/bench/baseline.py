"""The BENCH JSON document and its baseline comparison.

Every mode of the harness (:mod:`repro.bench.benchmark`) reports a flat
``name -> value`` metric mapping; this module writes it as a BENCH v2
document, reads one back and compares a run against a committed baseline.

The direction of a metric is carried by its name suffix, so a baseline
file stays self-describing: ``…/mbps`` regresses when it *drops* below
baseline by more than the tolerance; ``…_ms`` and ``…_s`` regress when
they *rise*.
The name's head (:func:`figure_of_metric`) is the suite that produced it —
a gate figure, or ``power`` / ``throughput`` / ``fault`` — so one baseline
file holds every suite and a run is compared against its own suites' keys.

Every metric is simulated and seeded, so on one code revision the
recorded document is byte-identical run to run; any drift against the
committed ``BENCH_baseline.json`` is a code change, not noise.  Host time
is not measured here: the calibrated ledger (``benchmarks/ledger``,
``BENCHMARK.json``) owns it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Schema version of the BENCH JSON document.
BENCH_FORMAT_VERSION = 2

#: Default regression tolerance, percent of the baseline value.
DEFAULT_TOLERANCE_PCT = 5.0


# ----------------------------------------------------------------------
# BENCH JSON round trip
# ----------------------------------------------------------------------
def write_bench(path: str, metrics: Dict[str, float], repeats: int,
                series: Optional[Dict[str, dict]] = None) -> None:
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
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
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
    """The suite a metric belongs to.

    ``"fig6[B=200,double]/mbps"`` maps to ``"fig6"``,
    ``"fault[kill-node,n=2]/recovery_s"`` to ``"fault"``; the
    bench CLI compares a run against the baseline keys of the suites it
    was asked to produce.
    """
    return metric_name.split("[", 1)[0].split("/", 1)[0]


def higher_is_better(metric_name: str) -> bool:
    """Metric direction by name suffix: bandwidth and throughput up,
    latency and recovery time down.

    ``…_ms`` and ``…_s`` are durations (lower is better); everything else
    — ``…/mbps``, ``…/retained_ratio`` — is a rate (higher is better).
    """
    return not (metric_name.endswith("_ms") or metric_name.endswith("_s"))


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
        delta_pct = self.delta_pct
        change = "n/a" if delta_pct is None else f"{delta_pct:+.2f}%"
        return (
            f"{self.name}: {self.baseline:g} -> {self.current:g} "
            f"({change}, {direction}, "
            f"tol {self.tolerance_pct:g}%) {verdict}"
        )


def compare_bench(
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
) -> Tuple[List[MetricDelta], List[str]]:
    """Compare a run against a baseline, every metric at ``tolerance_pct``.

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
            tolerance_pct=tolerance_pct,
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
