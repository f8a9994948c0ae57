"""Small statistics helpers for repeated measurements.

The paper performs every experiment five times "in order to achieve low
variance in the measurements" (section 3).  The measurement harness in
:mod:`repro.core.measurement` repeats runs with different random seeds and
summarizes them with these helpers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.util.record import Frozen


class MeasurementStats(Frozen):
    """Summary statistics of a repeated measurement.

    Attributes:
        samples: The raw sample values, in measurement order.
        mean: Arithmetic mean of the samples.
        std: Sample standard deviation (ddof=1; 0.0 for a single sample).
        minimum: Smallest sample.
        maximum: Largest sample.
    """

    samples: tuple
    mean: float
    std: float
    minimum: float
    maximum: float
    __slots__ = ("samples", "mean", "std", "minimum", "maximum")

    def __init__(self, samples: tuple, mean: float, std: float, minimum: float,
                 maximum: float) -> None:
        self._set_fields(samples, mean, std, minimum, maximum)

    def __str__(self) -> str:
        return f"{self.mean:.6g} ± {self.std:.2g} (n={len(self.samples)})"


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``samples`` with linear interpolation.

    Uses the "linear" (inclusive) method: the k-th order statistic sits at
    rank ``k / (n - 1)`` and percentiles between ranks interpolate linearly
    — the same convention as ``numpy.percentile``'s default, implemented
    here without the dependency.

    Args:
        samples: The observations (any order; not modified).
        q: Percentile in [0, 100].

    Raises:
        ValueError: If ``samples`` is empty or ``q`` is outside [0, 100].
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    values = sorted(float(s) for s in samples)
    if not values:
        raise ValueError("cannot take a percentile of an empty sample sequence")
    return _rank_value(values, q)


def _rank_value(values: List[float], q: float) -> float:
    """The ``q``-th percentile of the sorted, non-empty ``values``."""
    if len(values) == 1:
        return values[0]
    rank = (q / 100.0) * (len(values) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return values[lower]
    fraction = rank - lower
    # One-multiplication form: exact when both order statistics coincide and
    # always bounded by [values[lower], values[upper]], unlike the two-product
    # convex combination which can drift below the minimum by one ulp.
    return values[lower] + fraction * (values[upper] - values[lower])


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """``n``/``mean``/``min``/``max``/``p50``/``p95``/``p99`` of a latency list.

    The one definition of a run's latency percentiles: the live windows,
    ``repro top``'s footer, the Prometheus summary, the ``flow.latency.*``
    gauges, the bottleneck report and the BENCH gate all read this, so they
    agree by construction.  Each percentile is float-identical to
    :func:`percentile` of the same list (one sort instead of three); the
    mean is summed in arrival order.  An empty list yields all zeros.
    """
    if not latencies:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}
    mean = sum(latencies) / len(latencies)
    values = sorted(float(s) for s in latencies)
    return {
        "n": len(values),
        "mean": mean,
        "min": values[0],
        "max": values[-1],
        "p50": _rank_value(values, 50.0),
        "p95": _rank_value(values, 95.0),
        "p99": _rank_value(values, 99.0),
    }


def summarize(samples: Sequence[float]) -> MeasurementStats:
    """Summarize a non-empty sequence of samples.

    Raises:
        ValueError: If ``samples`` is empty.
    """
    values = tuple(float(s) for s in samples)
    if not values:
        raise ValueError("cannot summarize an empty sample sequence")
    mean = sum(values) / len(values)
    if len(values) > 1:
        variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        std = math.sqrt(variance)
    else:
        std = 0.0
    return MeasurementStats(
        samples=values,
        mean=mean,
        std=std,
        minimum=min(values),
        maximum=max(values),
    )
