"""One SCSQL statement on a fresh default environment, executed or described::

    python -m repro query 'select ...;' [--stop-after SECS] [OBS FLAGS]
    python -m repro explain 'select ...;'

Rejected text ends in one diagnostic line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.cli_flags import add_observability_flags, observe_level
from repro.obs.instrument import instrumentation_for
from repro.util.errors import AllocationError, QueryError

__all__ = ["add_query_parser", "add_explain_parser"]


def _rejected(command: str, error: Exception) -> int:
    print(f"{command}: {error}", file=sys.stderr)
    return 2


def _query(args: argparse.Namespace) -> int:
    from repro.hardware.environment import Environment, EnvironmentConfig
    from repro.scsql.session import SCSQSession

    obs = instrumentation_for(observe_level(args))
    session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
    try:
        report = session.execute(args.text, stop_after=args.stop_after)
    except (QueryError, AllocationError) as error:
        return _rejected("query", error)
    if report is None:
        print("function defined")
        return 0
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
    return 0


def _explain(args: argparse.Namespace) -> int:
    from repro.scsql.session import SCSQSession

    try:
        text = SCSQSession().explain(args.text)
    except (QueryError, AllocationError) as error:
        return _rejected("explain", error)
    print(text)
    return 0


def add_query_parser(sub: Any) -> None:
    """Register the ``query`` subcommand on a subparsers object."""
    q = sub.add_parser("query", help="execute one SCSQL statement")
    q.add_argument("text", help="the SCSQL statement")
    q.add_argument(
        "--stop-after", type=float, default=None,
        help="terminate the query this many simulated seconds after it starts",
    )
    add_observability_flags(q)
    q.set_defaults(func=_query)


def add_explain_parser(sub: Any) -> None:
    """Register the ``explain`` subcommand on a subparsers object."""
    e = sub.add_parser("explain", help="show a query's process graph and placement")
    e.add_argument("text", help="the SCSQL select query")
    e.set_defaults(func=_explain)
