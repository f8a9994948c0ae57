"""The live-telemetry, detector-hysteresis and sanitizer flag groups that
``bench`` (:mod:`repro.bench.cli`) shares with the ``adaptive`` / ``top`` /
``multiquery`` subcommands of :mod:`repro.__main__`, each next to the helper
that reads it back off the parsed arguments."""

from __future__ import annotations

import argparse
from typing import Optional


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
             "node slots and listeners, and exit 1 on findings (in-process "
             "runs only — subprocess workers of --jobs N are not audited)",
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
