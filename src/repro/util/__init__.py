"""Shared utilities: exception hierarchy, unit conversions, statistics.

These modules are intentionally dependency-free so every other subpackage can
import them without cycles.
"""

from repro.util.errors import (
    AllocationError,
    HardwareError,
    NetworkError,
    QueryError,
    QueryExecutionError,
    QueryParseError,
    QuerySemanticError,
    ReproError,
    SimulationError,
)
from repro.util.stats import MeasurementStats, summarize
from repro.util.units import (
    GIGA,
    KILO,
    MEGA,
    format_bytes,
    format_rate,
    gbps,
    mbps,
    rate_bps,
)

__all__ = [
    "AllocationError",
    "HardwareError",
    "NetworkError",
    "QueryError",
    "QueryExecutionError",
    "QueryParseError",
    "QuerySemanticError",
    "ReproError",
    "SimulationError",
    "MeasurementStats",
    "summarize",
    "GIGA",
    "KILO",
    "MEGA",
    "format_bytes",
    "format_rate",
    "gbps",
    "mbps",
    "rate_bps",
]
