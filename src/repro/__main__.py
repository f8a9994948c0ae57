"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro fig6|fig8|fig15|ablations|scaling|all ...
    python -m repro bench|adaptive|top ...
    python -m repro query|explain 'select ...;'
    python -m repro multiquery|analyze ...

This module only dispatches.  Every subcommand registers next to the code
it drives — an ``add_*_parser(sub)`` that builds its parser and sets
``func`` — and ``<command> --help`` documents its flags.  Adding one is
such a function plus one line in :func:`build_parser`.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from repro.analysis.cli import add_analyze_parser
from repro.bench.cli import add_bench_parser, add_top_parser
from repro.core.experiments.cli import (
    add_adaptive_parser,
    add_figure_parsers,
    add_multiquery_parser,
)
from repro.scsql.cli import add_explain_parser, add_query_parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SCSQ reproduction: regenerate the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The order below is the order of `--help`.
    add_figure_parsers(sub)
    add_bench_parser(sub)
    add_adaptive_parser(sub)
    add_top_parser(sub)
    add_query_parser(sub)
    add_explain_parser(sub)
    add_multiquery_parser(sub)
    add_analyze_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "_sanitize_wrap", False) and (
        args.sanitize or args.chaos_seed is not None
    ):
        return _run_sanitized(args)
    return int(args.func(args) or 0)


def _run_sanitized(args: argparse.Namespace) -> int:
    """Run one subcommand under the sanitizer and/or the chaos scheduler.

    A ``--sanitize`` run that audited no teardown checked nothing: that
    is a failure (exit 1), not a clean run.  A usage error (exit 2)
    started no run, so it reports no audit.
    """
    from repro.analysis import sanitize

    scope = None
    with ExitStack() as stack:
        if args.chaos_seed is not None:
            stack.enter_context(sanitize.chaos(args.chaos_seed))
        if args.sanitize:
            scope = stack.enter_context(
                sanitize.sanitizer(label=f"cli:{args.command}", strict=False)
            )
        code = int(args.func(args) or 0)
    if scope is None or code == 2:
        return code
    print(f"sanitize: {scope.audited} teardown(s) audited")
    if scope.report.diagnostics:
        print(scope.report.format_text(), file=sys.stderr)
        return 1
    return code or (0 if scope.audited else 1)


if __name__ == "__main__":
    sys.exit(main())
