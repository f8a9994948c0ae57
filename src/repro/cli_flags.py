"""The flag groups more than one subcommand shares — observability,
live telemetry, detector hysteresis, sanitizer — each next to the helper
that reads it back off the parsed arguments.  The subcommands themselves
register beside the code they drive (``add_*_parser`` in
:mod:`repro.core.experiments.cli`, :mod:`repro.bench.cli`,
:mod:`repro.scsql.cli`, :mod:`repro.analysis.cli`)."""

from __future__ import annotations

import argparse
from typing import Optional

from repro.obs.instrument import (
    OBSERVE_FLOWS,
    OBSERVE_METRICS,
    OBSERVE_NONE,
    OBSERVE_TRACE,
)


def add_observability_flags(parser: argparse.ArgumentParser) -> None:
    """What :func:`repro.obs.export.export_observations` writes after the run."""
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record every simulated run; writes a Chrome trace_event JSON "
             "file with flow arrows (.jsonl extension switches to raw "
             "JSON-lines records)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write plain-text utilization summaries of every run "
             "('-' prints to stdout)",
    )
    parser.add_argument(
        "--bottlenecks", metavar="PATH", default=None,
        help="profile the critical path over all recorded flows and write "
             "the ranked bottleneck report (.json extension for JSON, "
             "'-' prints to stdout)",
    )


def observe_level(args: argparse.Namespace) -> str:
    """The cheapest observation level serving every observability flag.

    ``--metrics-out`` reads the live registry and ``--bottlenecks`` the
    flows; together they need a level that has both *and* stays in-process,
    which is ``trace``.
    """
    if args.trace or (args.metrics_out and args.bottlenecks):
        return OBSERVE_TRACE
    if args.bottlenecks:
        return OBSERVE_FLOWS
    return OBSERVE_METRICS if args.metrics_out else OBSERVE_NONE


def add_detector_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "detector hysteresis",
        "thresholds of the continuous bottleneck detector watching the "
        "live windows (defaults in repro.obs.health)",
    )
    group.add_argument(
        "--detect-high", type=float, default=None, metavar="FRAC",
        help="utilization fraction at or above which a resource counts "
             "as saturated (default 0.85)",
    )
    group.add_argument(
        "--detect-low", type=float, default=None, metavar="FRAC",
        help="utilization fraction at or below which a saturated resource "
             "counts as recovered (default 0.60)",
    )
    group.add_argument(
        "--detect-up-windows", type=int, default=None, metavar="N",
        help="consecutive hot windows before a saturation event fires "
             "(default 2)",
    )
    group.add_argument(
        "--detect-down-windows", type=int, default=None, metavar="N",
        help="consecutive cool windows before a recovery event fires "
             "(default 2)",
    )


def detector_kwargs(args) -> Optional[dict]:
    """The detector overrides actually passed, or None for stock."""
    mapping = {
        "high": args.detect_high,
        "low": args.detect_low,
        "up_windows": args.detect_up_windows,
        "down_windows": args.detect_down_windows,
    }
    kwargs = {name: value for name, value in mapping.items() if value is not None}
    return kwargs or None


def add_live_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live-out", metavar="PATH", default=None,
        help="watch the run with the live telemetry sampler and write the "
             "windowed time-series as JSON-lines",
    )
    parser.add_argument(
        "--live-window", type=float, default=None, metavar="SECS",
        help="live sampling window in simulated seconds (implies the live "
             "sampler; --live-out alone uses the default window)",
    )


def add_sanitize_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the dynamic sanitizer: audit every deployment "
             "teardown/migration for leaked processes, inboxes, carriers, "
             "node slots and listeners, and exit 1 on findings (subprocess "
             "workers of --jobs N are audited too)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="replay under the seeded shuffle scheduler: same-instant "
             "same-rank events dispatch in a seed-derived order, so any "
             "metric drift between seeds exposes a schedule race",
    )
    # Marks this subcommand for main()'s sanitizer wrapper.  `analyze`
    # also has a --sanitize flag but opens its own scope in cli.py, so
    # the wrapper must not double-wrap it (scopes do not nest).
    parser.set_defaults(_sanitize_wrap=True)


def live_window_arg(args) -> Optional[float]:
    """The effective live window: --live-out implies the default window."""
    window = getattr(args, "live_window", None)
    if window is None and getattr(args, "live_out", None):
        from repro.obs.live import DEFAULT_WINDOW

        window = DEFAULT_WINDOW
    return window
