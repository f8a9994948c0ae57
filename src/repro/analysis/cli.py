"""``python -m repro analyze``: static verification from the command line.

Compiles SCSQL statements (from arguments, files, or an example script's
``scsql_queries()`` hook), runs the :mod:`repro.analysis.verifier` pass
pipeline over every resulting plan against the paper's default topology,
pretty-prints the diagnostics, and exits non-zero when any plan has
errors (or, with ``--strict``, warnings).

``--sweeps`` verifies every point of the fig6/fig8/fig15, ablation and
scaling sweeps — each plan a ``python -m repro all`` run would deploy, on
its own topology and under its own selector — which is what CI runs to keep
the experiment definitions deployable.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Tuple

from repro.analysis.diagnostics import AnalysisReport, Diagnostic, Severity
from repro.analysis.verifier import verify_plan
from repro.scsql.ast import CreateFunction
from repro.scsql.compiler import FunctionDef
from repro.scsql.parser import parse
from repro.scsql.plan import compile_plan
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


def _example_statements(path: Path) -> List[Tuple[str, str]]:
    """Load an example script's queries via its ``scsql_queries()`` hook.

    The hook returns an iterable of SCSQL statement strings or
    ``(label, statement)`` pairs, in session order (function definitions
    before the queries that use them).
    """
    spec = importlib.util.spec_from_file_location(f"_analyze_{path.stem}", path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"analyze: cannot import example {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    hook = getattr(module, "scsql_queries", None)
    if hook is None:
        raise SystemExit(
            f"analyze: example {path} has no scsql_queries() hook; add one "
            "returning its SCSQL statements in session order"
        )
    statements: List[Tuple[str, str]] = []
    for index, entry in enumerate(hook()):
        if isinstance(entry, str):
            statements.append((f"{path.stem}[{index}]", entry))
        else:
            label, text = entry
            statements.append((f"{path.stem}:{label}", text))
    return statements


def _sweep_reports() -> List[AnalysisReport]:
    """Verify every point of every ``FIGURES`` sweep as it will run.

    Walks the sweeps' own spec builders at their defaults and hands each
    point to the check :func:`~repro.core.measurement.measure_points`
    applies before a sweep: the plan compiled with the point's settings, on
    its own topology (named in the label when it is not the default),
    placed by its selector.
    """
    from repro.core.experiments import FIGURES
    from repro.core.measurement import key_label, verify_point
    from repro.hardware.environment import EnvironmentConfig

    default = EnvironmentConfig()
    reports: List[AnalysisReport] = []
    for sweeps in FIGURES.values():
        for sweep in sweeps:
            for spec in sweep.specs():
                name = sweep.name
                if spec.env_config is not None:
                    shape = spec.env_config.bluegene.torus_shape
                    name += " " + "x".join(str(d) for d in shape)
                plan = compile_plan(spec.query, settings=spec.settings)
                reports.append(verify_point(
                    plan, spec, spec.env_config or default,
                    f"{name} {key_label(spec.key)}",
                ))
    return reports


def _bench_statements() -> List[Tuple[str, str]]:
    """Every deck query the benchmark harness would deploy.

    The full deck for a handful of numbered streams (enough to cover every
    kind x every per-stream source-name/file-range specialization), at both
    shipped scales — what the CI ``bench-faults`` job verifies before it
    runs anything.
    """
    from repro.bench.query_stream import (
        DEFAULT_SCALE,
        SMOKE_SCALE,
        build_query,
        query_order,
    )

    statements: List[Tuple[str, str]] = []
    for scale in (DEFAULT_SCALE, SMOKE_SCALE):
        for stream_id in range(4):
            for kind in query_order(stream_id):
                query = build_query(kind, stream_id, scale)
                statements.append(
                    (f"bench {scale.name} s{stream_id} {kind}", query.query)
                )
    return statements


def _parse_seeds(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"analyze: --chaos-seeds wants comma-separated integers, got {text!r}"
        ) from None


def _sanitize_clean_run(seeds: List[int]) -> "AnalysisReport":
    """The dynamic self-check: a real harness must be sanitizer-clean.

    Runs the small Figure 6 point-to-point query under every chaos seed
    inside one sanitizer scope — leak audits at teardown, an env-level
    quiescence audit per run, and the cross-seed ``SAN101`` comparison
    over the result duration plus the stream-level flow fingerprint.
    """
    from repro.analysis import sanitize
    from repro.coordinator.deployer import Deployer
    from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
    from repro.hardware.environment import Environment, EnvironmentConfig
    from repro.obs import Instrumentation
    from repro.obs.flow import FlowRecorder

    array_bytes, count = scaled_workload(4096, 120)
    plan = compile_plan(point_to_point_query(array_bytes, count))

    def harness() -> Dict[str, Any]:
        env = Environment(
            EnvironmentConfig(), obs=Instrumentation(flows=FlowRecorder())
        )
        deployer = Deployer(env)
        deployment = deployer.deploy(deployer.place(plan))
        report = deployment.run()
        deployment.teardown()
        sanitize.assert_quiescent(env, raise_on_findings=False)
        return {
            "duration": report.duration,
            "flows": sanitize.flow_fingerprint(env.obs.flows),
        }

    with sanitize.sanitizer(label="sanitize:fig6", strict=False) as scope:
        sanitize.run_shuffled(harness, seeds=seeds, label="sanitize:fig6")
    return scope.report


def _run_sanitize(args: argparse.Namespace) -> Tuple[List["AnalysisReport"], int]:
    """The ``--sanitize`` mode: the clean self-check, failing on findings."""
    seeds = _parse_seeds(args.chaos_seeds)
    if not seeds:
        raise SystemExit("analyze: --chaos-seeds must name at least one seed")
    report = _sanitize_clean_run(seeds)
    return [report], 0 if report.ok(strict=args.strict) else 1


def run_analyze(args: argparse.Namespace) -> int:
    statements: List[Tuple[str, str]] = []
    for index, text in enumerate(args.queries):
        for sub_index, stmt in enumerate(split_statements(text)):
            statements.append((f"arg{index}[{sub_index}]", stmt))
    for file_path in args.files:
        path = Path(file_path)
        for sub_index, stmt in enumerate(split_statements(path.read_text())):
            statements.append((f"{path.name}[{sub_index}]", stmt))
    for example in args.examples:
        statements.extend(_example_statements(Path(example)))
    if args.bench:
        statements.extend(_bench_statements())
    if args.sanitize:
        sanitize_reports, sanitize_exit = _run_sanitize(args)
        if args.json:
            print(
                json.dumps(
                    {
                        "ok": sanitize_exit == 0,
                        "strict": args.strict,
                        "reports": [
                            json.loads(r.to_json()) for r in sanitize_reports
                        ],
                    },
                    indent=2,
                )
            )
        else:
            for report in sanitize_reports:
                print(report.format_text(verbose=args.verbose))
            failing = sum(
                1 for r in sanitize_reports if not r.ok(strict=args.strict)
            )
            print(
                f"analyze --sanitize: {len(sanitize_reports)} report(s), "
                f"{failing} with findings"
            )
        if not statements and not args.sweeps:
            return sanitize_exit
        static_exit = _run_static(args, statements)
        return max(sanitize_exit, static_exit)
    if not statements and not args.sweeps:
        print(
            "analyze: nothing to verify (pass queries, --file, --example, "
            "--sweeps, --bench, or --sanitize)",
            file=sys.stderr,
        )
        return 2
    return _run_static(args, statements)


def _run_static(args: argparse.Namespace, statements: List[Tuple[str, str]]) -> int:
    reports = _verify_statements(statements)
    if args.sweeps:
        reports.extend(_sweep_reports())
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
        "--example",
        dest="examples",
        action="append",
        default=[],
        metavar="PATH.py",
        help="verify the queries an example script declares via its "
        "scsql_queries() hook",
    )
    p.add_argument(
        "--sweeps",
        action="store_true",
        help="verify every plan of the fig6/fig8/fig15/ablation/scaling sweeps",
    )
    p.add_argument(
        "--bench",
        action="store_true",
        help="verify every deck query of the benchmark harness "
        "(see docs/benchmarking.md)",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="run the dynamic sanitizers (leak audit + chaos replay of a "
        "reference harness); exits non-zero whenever findings exist",
    )
    p.add_argument(
        "--chaos-seeds",
        default="0,1,2",
        metavar="N,N,...",
        help="comma-separated ShuffleScheduler seeds for --sanitize chaos "
        "replay (default: 0,1,2)",
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
