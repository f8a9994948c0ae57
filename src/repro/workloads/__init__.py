"""Synthetic workloads: the data the paper's queries run over.

The real LOFAR antenna streams and file tables are not available; these
modules generate deterministic substitutes — numeric array streams, a text
corpus for distributed grep, and signal arrays for the radix2 FFT example.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "MARKER",
    "filename",
    "read_file",
    "expected_marker_count",
    "sinusoid_mixture",
    "signal_stream",
    "make_signal_source",
    "Accident",
    "position_reports",
    "partition_by_segment",
    "segment_speeds",
    "expected_congested_windows",
]

__getattr__ = lazy_exports(__name__, {
    "repro.workloads.corpus": ("MARKER", "expected_marker_count", "filename", "read_file"),
    "repro.workloads.linear_road": (
        "Accident", "expected_congested_windows", "partition_by_segment", "position_reports",
        "segment_speeds",
    ),
    "repro.workloads.signals": ("make_signal_source", "signal_stream", "sinusoid_mixture"),
})
