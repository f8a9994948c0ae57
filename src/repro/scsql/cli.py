"""One SCSQL statement on a fresh default environment, executed or described::

    python -m repro query 'select ...;' [--stop-after SECS] [OBS FLAGS]
    python -m repro explain 'select ...;'
"""

from __future__ import annotations

import argparse
from typing import Any

from repro.cli_flags import add_observability_flags, observe_level
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs.instrument import instrumentation_for
from repro.scsql.session import SCSQSession

__all__ = ["add_query_parser", "add_explain_parser"]


def _query(args: argparse.Namespace) -> None:
    obs = instrumentation_for(observe_level(args))
    session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
    report = session.execute(args.text, stop_after=args.stop_after)
    if report is None:
        print("function defined")
        return
    print("result:", report.result)
    print(f"simulated time: {report.duration * 1e3:.3f} ms"
          + (" (stopped)" if report.stopped else ""))
    print("placements:")
    for sp_id, node in sorted(report.rp_placements.items()):
        print(f"  {sp_id:>24} -> {node}")
    if obs is not None:
        from repro.obs.export import export_observations

        export_observations(
            [("query", obs)], args.trace, args.metrics_out, args.bottlenecks
        )


def _explain(args: argparse.Namespace) -> None:
    print(SCSQSession().explain(args.text))


def add_query_parser(sub: Any) -> None:
    """Register the ``query`` subcommand on a subparsers object."""
    q = sub.add_parser("query", help="execute one SCSQL statement")
    q.add_argument("text", help="the SCSQL statement")
    q.add_argument(
        "--stop-after", type=float, default=None,
        help="terminate the query at this simulated time (seconds)",
    )
    add_observability_flags(q)
    q.set_defaults(func=_query)


def add_explain_parser(sub: Any) -> None:
    """Register the ``explain`` subcommand on a subparsers object."""
    e = sub.add_parser("explain", help="show a query's process graph and placement")
    e.add_argument("text", help="the SCSQL select query")
    e.set_defaults(func=_explain)
