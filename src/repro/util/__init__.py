"""Shared utilities: exception hierarchy, unit conversions, statistics.

These modules are intentionally dependency-free so every other subpackage can
import them without cycles.
"""

from repro.util.lazy import lazy_exports

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

__getattr__ = lazy_exports(__name__, {
    "repro.util.errors": (
        "AllocationError", "HardwareError", "NetworkError", "QueryError", "QueryExecutionError",
        "QueryParseError", "QuerySemanticError", "ReproError", "SimulationError",
    ),
    "repro.util.stats": ("MeasurementStats", "summarize"),
    "repro.util.units": (
        "GIGA", "KILO", "MEGA", "format_bytes", "format_rate", "gbps", "mbps", "rate_bps",
    ),
})
