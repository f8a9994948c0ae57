"""The subcommands that run this package's experiments::

    python -m repro fig6|fig8|fig15|ablations|scaling|all
                        [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro multiquery [--streams N] [--array-bytes B] [--count N]
                               [--live-out PATH]
    python -m repro adaptive [--point fig15|fig8] [--smoke] [--events-out PATH]

The paper measures every query family the same way (section 3), so the
figure commands are one runner over one table
(:data:`repro.core.experiments.FIGURES`).  A full run passes *no* sweep
argument: the experiment modules' ``DEFAULT_*`` are the only definition of
a full sweep, and ``--quick`` overrides them.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Any, Dict

from repro.cli_flags import (
    add_live_flags,
    add_observability_flags,
    add_sanitize_flags,
    observe_level,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.experiments.figures import Sweep

__all__ = ["add_adaptive_parser", "add_figure_parsers", "add_multiquery_parser"]

#: The figure commands: the keys of :data:`~repro.core.experiments.FIGURES`,
#: in its order (a test pins the two equal).  Registering a command must not
#: build the figure table, which imports every experiment module.
FIGURE_COMMANDS = ("fig6", "fig8", "fig15", "ablations", "scaling")


def sweep_kwargs(sweep: Sweep, args: argparse.Namespace) -> Dict[str, Any]:
    """What one ``run_sweep(sweep, ...)`` call is passed for the parsed flags."""
    return {
        **(sweep.quick if args.quick else {}),
        "repeats": args.repeats,
        "observe": observe_level(args),
        "jobs": args.jobs,
    }


def _run_figure(name: str, args: argparse.Namespace) -> None:
    """The one figure runner: every sweep of ``FIGURES[name]``, a blank
    line between two tables."""
    from repro.core.experiments import FIGURES
    from repro.core.measurement import run_sweep
    from repro.obs.export import export_observations

    sections = []
    for index, sweep in enumerate(FIGURES[name]):
        if index:
            print()
        result = run_sweep(sweep, **sweep_kwargs(sweep, args))
        print(result.format_table())
        if sweep.headline is not None:
            print(sweep.headline(result))
        sections.extend(
            (f"{sweep.point.format(k=key)} r{i}", obs)
            for key, point in result.points.items()
            for i, obs in enumerate(point.observations)
        )
    export_observations(sections, args.trace, args.metrics_out, args.bottlenecks)


def _all(args: argparse.Namespace) -> None:
    for name in FIGURE_COMMANDS:
        start = time.time()
        _run_figure(name, args)
        print(f"[{name}: {time.time() - start:.1f}s]")
        print()


def add_figure_parsers(sub: Any) -> None:
    """Register ``fig6`` ... ``scaling`` and ``all`` on a subparsers object."""
    for name in (*FIGURE_COMMANDS, "all"):
        p = sub.add_parser(name, help=f"run the {name} experiment(s)")
        p.add_argument("--repeats", type=int, default=3, help="runs per point")
        p.add_argument("--quick", action="store_true", help="reduced sweep")
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="fan the independent (point, repeat) simulations over N "
                 "worker processes; results are bit-identical to --jobs 1 "
                 "(--trace and --metrics-out read the live hub and keep "
                 "the runs in-process)",
        )
        if name == "all":
            # Five figures into one file would be no one's trace: `all`
            # runs unobserved.
            p.set_defaults(func=_all, trace=None, metrics_out=None, bottlenecks=None)
        else:
            add_observability_flags(p)
            p.set_defaults(func=lambda args: _run_figure(args.command, args))


def _multiquery(args: argparse.Namespace) -> None:
    from repro.core.experiments.contention import SHARED_PSET, run_contention_demo
    from repro.obs.export import live_table, write_timeseries_jsonl

    result = run_contention_demo(
        n=args.streams,
        array_bytes=args.array_bytes,
        count=args.count,
        seed=args.seed,
        live=args.live_out is not None,
    )
    print(result.format_table())
    worst = min(o.interference for o in result.outcomes)
    print(
        f"-> two concurrent CQs through pset {SHARED_PSET}'s I/O node: "
        f"worst query keeps {worst:.0%} of its solo bandwidth"
    )
    if args.live_out:
        print()
        print(live_table(result.live))
        lines = write_timeseries_jsonl(args.live_out, result.live, label="multiquery")
        print(f"live: {lines} time-series records -> {args.live_out}")


def add_multiquery_parser(sub: Any) -> None:
    """Register the ``multiquery`` subcommand on a subparsers object."""
    m = sub.add_parser(
        "multiquery",
        help="run two concurrent CQs contending for one I/O-node path",
    )
    m.add_argument(
        "--streams", type=int, default=2, metavar="N",
        help="parallel back-end streams per query (default 2)",
    )
    m.add_argument(
        "--array-bytes", type=int, default=3_000_000, metavar="BYTES",
        help="array size each stream sends (default 3 MB, as in the paper)",
    )
    m.add_argument(
        "--count", type=int, default=5, metavar="N",
        help="arrays per stream (default 5)",
    )
    m.add_argument("--seed", type=int, default=0, help="environment seed")
    add_live_flags(m)
    m.set_defaults(func=_multiquery)


def _adaptive(args: argparse.Namespace) -> int:
    from repro.core.experiments.adaptive import (
        ADAPTIVE_POINTS,
        run_adaptive_point,
        write_health_events,
    )

    if args.point not in ADAPTIVE_POINTS:
        print(f"adaptive: unknown point {args.point!r} "
              f"(known: {', '.join(ADAPTIVE_POINTS)})", file=sys.stderr)
        return 2
    comparison = run_adaptive_point(
        args.point,
        seed=args.seed,
        smoke=args.smoke,
    )
    print(comparison.format_table())
    if args.events_out:
        count = write_health_events(args.events_out, comparison.adaptive)
        print(f"health: {count} events -> {args.events_out}")
    return 0


def add_adaptive_parser(sub: Any) -> None:
    """Register the ``adaptive`` subcommand on a subparsers object."""
    a = sub.add_parser(
        "adaptive",
        help="adaptive runtime: compare a static placement against "
             "measurement-driven live migration on one regression point",
    )
    a.add_argument(
        "--point", default="fig15", metavar="NAME",
        help="regression point to run: fig15 (concurrent-CQ contention "
             "funnel, default) or fig8 (merge through a busy intermediate)",
    )
    a.add_argument("--seed", type=int, default=0, help="environment seed")
    a.add_argument(
        "--smoke", action="store_true",
        help="CI smoke scale: reduced payloads, same control loop",
    )
    a.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="write the adaptive run's health events as JSON-lines "
             "(the CI smoke job uploads this artifact)",
    )
    add_sanitize_flags(a)
    a.set_defaults(func=_adaptive)
