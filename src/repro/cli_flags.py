"""The flag groups more than one subcommand shares — observability (read
back off the parsed arguments by :func:`observe_level`), live telemetry,
sanitizer.  The subcommands themselves register beside the code they
drive (``add_*_parser`` in :mod:`repro.core.experiments.cli`,
:mod:`repro.bench.cli`, :mod:`repro.scsql.cli`,
:mod:`repro.analysis.cli`)."""

from __future__ import annotations

import argparse

from repro.obs.instrument import (
    OBSERVE_FLOWS,
    OBSERVE_METRICS,
    OBSERVE_NONE,
    OBSERVE_TRACE,
)
from repro.obs.null import DEFAULT_WINDOW


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


def add_live_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live-out", metavar="PATH", default=None,
        help="watch the run with the live telemetry sampler and write the "
             f"windowed time-series as JSON-lines ({DEFAULT_WINDOW * 1e3:g} ms "
             "simulated windows)",
    )


def add_sanitize_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run under the dynamic sanitizer: audit every deployment "
             "teardown/migration for leaked processes, inboxes, carriers "
             "and node slots, and exit 1 on findings (subprocess workers "
             "of --jobs N are audited too)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=None, metavar="SEED",
        help="replay under the seeded shuffle scheduler: same-instant "
             "same-rank events dispatch in a seed-derived order, so any "
             "metric drift between seeds exposes a schedule race",
    )
