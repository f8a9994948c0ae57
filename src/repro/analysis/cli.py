"""``python -m repro analyze``: static verification from the command line.

Compiles SCSQL statements (from arguments or files), runs the
:mod:`repro.analysis.verifier` pass pipeline over every resulting plan
against the paper's default topology, pretty-prints the diagnostics, and
exits non-zero when any plan has errors (or, with ``--strict``, warnings).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable, List, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.util.errors import QueryError

__all__ = ["run_analyze", "add_analyze_parser", "split_statements"]


def split_statements(text: str) -> List[str]:
    """Split SCSQL source into ``;``-separated statements.

    Respects single-quoted strings (the only SCSQL quoting form); empty
    fragments (trailing semicolons, blank lines) are dropped.
    """
    statements: List[str] = []
    current: List[str] = []
    in_string = False
    for ch in text:
        if ch == "'":
            in_string = not in_string
        if ch == ";" and not in_string:
            statements.append("".join(current))
            current = []
        else:
            current.append(ch)
    statements.append("".join(current))
    return [s.strip() for s in statements if s.strip()]


def _compile_failure(label: str, exc: Exception) -> AnalysisReport:
    """A synthetic error report for a statement that didn't compile."""
    report = AnalysisReport(label=label)
    report.add(
        Diagnostic(
            code="SCSQ000",
            severity=Severity.ERROR,
            message=f"statement does not compile: {exc}",
        )
    )
    return report


def _verify_statements(
    statements: Iterable[Tuple[str, str]],
) -> List[AnalysisReport]:
    """Compile and verify labelled statements, sharing a function registry.

    ``create function`` statements register their function for the
    statements that follow (mirroring a session) and produce no report.
    Each select query is verified against a *fresh* topology, as
    ``Deployer.run`` on a fresh environment would see it (concurrent-
    deployment conflicts are ``session.deployer.verify(plan)``'s to find).
    """
    from repro.analysis.verifier import verify_plan
    from repro.scsql.ast import CreateFunction
    from repro.scsql.compiler import FunctionDef
    from repro.scsql.parser import parse
    from repro.scsql.plan import compile_plan

    functions = {}
    reports: List[AnalysisReport] = []
    for label, text in statements:
        try:
            statement = parse(text)
            if isinstance(statement, CreateFunction):
                functions[statement.name] = FunctionDef(statement)
                continue
            plan = compile_plan(text, functions=dict(functions))
        except QueryError as exc:
            reports.append(_compile_failure(label, exc))
            continue
        reports.append(verify_plan(plan, label=label))
    return reports


def run_analyze(args: argparse.Namespace) -> int:
    statements: List[Tuple[str, str]] = []
    for index, text in enumerate(args.queries):
        for sub_index, stmt in enumerate(split_statements(text)):
            statements.append((f"arg{index}[{sub_index}]", stmt))
    for file_path in args.files:
        path = Path(file_path)
        for sub_index, stmt in enumerate(split_statements(path.read_text())):
            statements.append((f"{path.name}[{sub_index}]", stmt))
    if not statements:
        print("analyze: nothing to verify (pass queries or --file)", file=sys.stderr)
        return 2
    reports = _verify_statements(statements)
    failed = [r for r in reports if not r.ok(strict=args.strict)]
    if args.json:
        print(
            json.dumps(
                {
                    "ok": not failed,
                    "strict": args.strict,
                    "reports": [json.loads(r.to_json()) for r in reports],
                },
                indent=2,
            )
        )
    else:
        for report in reports:
            if report.diagnostics or args.verbose:
                print(report.format_text(verbose=args.verbose))
        clean = sum(1 for r in reports if not r.diagnostics)
        print(
            f"analyze: {len(reports)} plan(s) verified, {clean} clean, "
            f"{len(failed)} failing"
            + (" (strict)" if args.strict else "")
        )
    return 1 if failed else 0


def add_analyze_parser(sub: Any) -> None:
    """Register the ``analyze`` subcommand on a subparsers object."""
    p = sub.add_parser(
        "analyze",
        help="statically verify SCSQL plans (no simulation)",
        description=(
            "Compile SCSQL statements and run the static plan verifier: "
            "placement conflicts, exhausted allocation sequences, graph "
            "defects, and cost-model capacity bounds, with SCSQxxx codes. "
            "See docs/static-analysis.md for the catalogue."
        ),
    )
    p.add_argument(
        "queries",
        nargs="*",
        help="SCSQL statements (';'-separated; create-function statements "
        "register functions for later statements)",
    )
    p.add_argument(
        "--file",
        dest="files",
        action="append",
        default=[],
        metavar="PATH",
        help="read ';'-separated SCSQL statements from a file",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (errors always fail)",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--verbose",
        action="store_true",
        help="also print clean reports and info-level diagnostics",
    )
    p.set_defaults(func=run_analyze)
