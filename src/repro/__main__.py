"""Command-line interface: regenerate the paper's experiments.

Usage::

    python -m repro fig6 [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro fig8 [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro fig15 [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro ablations [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro scaling [--repeats N] [--quick] [--jobs N] [OBS FLAGS]
    python -m repro all [--repeats N] [--quick] [--jobs N]
    python -m repro query 'select ...;' [OBS FLAGS]
    python -m repro analyze 'select ...;' [--file F] [--example E.py]
                            [--sweeps] [--strict] [--json]
    python -m repro multiquery [--streams N] [--array-bytes B] [--count N]
                               [--live-out PATH] [--live-window SECS]
    python -m repro bench ...        (see :mod:`repro.bench.cli`)
    python -m repro top [--point NAME] [--window SECS] [--once]
                        [--live-out PATH] [--prom PATH]

``--quick`` runs a reduced sweep (seconds instead of minutes).  ``--jobs N``
fans the independent (sweep-point, repeat) simulations over N worker
processes with bit-identical results (see ``docs/performance.md``); of the
observability flags only ``--trace`` and ``--metrics-out`` keep the runs
in-process (they read the live hub).  ``query`` executes one SCSQL
statement on a fresh default environment and prints the result and
placements.  ``multiquery`` compiles two continuous queries once, deploys
them concurrently on one shared environment (both receiving inside the
same BlueGene pset, so they contend for its I/O-node path), and reports
each query's bandwidth next to its solo baseline.

Observability flags (``OBS FLAGS``): ``--trace PATH`` records every
simulated run and writes a Chrome ``trace_event`` file with per-flow hop
lanes and flow arrows (open it at ``chrome://tracing`` or
https://ui.perfetto.dev); a path ending in ``.jsonl`` writes raw JSON-lines
records instead.  ``--metrics-out PATH`` writes plain-text utilization
summaries (``-`` prints to stdout).  ``--bottlenecks PATH`` runs the
critical-path profiler over the collected flows and writes the ranked
report (``.json`` for machine-readable, ``-`` for stdout).

``top`` is the live-telemetry viewer: it runs one bench sample point with
a :class:`~repro.obs.live.LiveSampler` attached and renders a per-window
utilization/latency table as the simulation produces it (``--once``
prints the finished table a single time, for CI).  ``--live-out`` writes
the windowed time-series as JSON-lines; ``--prom`` writes a
Prometheus-style text exposition snapshot.  The same ``--live-out`` /
``--live-window`` pair on ``bench`` (power/throughput modes) and
``multiquery`` embeds the final windowed p50/p95/p99 series in the BENCH
v2 JSON — the regression gate keeps reading only the scalar metrics.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Tuple

from repro.core.experiments import (
    run_buffer_choice_ablation,
    run_fig6,
    run_fig8,
    run_fig15,
    run_node_selection_ablation,
    run_scaling_study,
)
from repro.cli_flags import (
    add_detector_flags,
    add_live_flags,
    add_sanitize_flags,
    detector_kwargs,
    live_window_arg,
)
from repro.obs import Instrumentation, profile, utilization_summary
from repro.obs.export import write_chrome_trace, write_trace_jsonl
from repro.obs.instrument import (
    OBSERVE_FLOWS,
    OBSERVE_METRICS,
    OBSERVE_NONE,
    OBSERVE_TRACE,
    instrumentation_for,
    live_instrumentation,
)
from repro.scsql.session import SCSQSession


def _observe_level(args) -> str:
    """The cheapest observation level serving every observability flag.

    ``--metrics-out`` reads the live registry and ``--bottlenecks`` the
    flows; together they need a level that has both *and* stays in-process,
    which is ``trace``.
    """
    metrics = getattr(args, "metrics_out", None)
    bottlenecks = getattr(args, "bottlenecks", None)
    if getattr(args, "trace", None) or (metrics and bottlenecks):
        return OBSERVE_TRACE
    if bottlenecks:
        return OBSERVE_FLOWS
    return OBSERVE_METRICS if metrics else OBSERVE_NONE


def _export_observations(args, sections: List[Tuple[str, Instrumentation]]) -> None:
    """Write the collected instrumentations per the observability flags
    (nothing without one: an unobserved run has no sections)."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        if trace_path.endswith(".jsonl"):
            with open(trace_path, "w", encoding="utf-8") as fh:
                lines = 0
                for label, obs in sections:
                    fh.write('{"section": %s}\n' % _json_str(label))
                    lines += write_trace_jsonl(fh, obs.tracer)
            print(f"trace: {lines} records -> {trace_path} (JSON-lines)")
        else:
            document = write_chrome_trace(
                trace_path,
                [(label, obs.tracer) for label, obs in sections],
                [
                    (label, obs.flows)
                    for label, obs in sections
                    if obs.flows.enabled and obs.flows.completed
                ],
            )
            print(
                f"trace: {len(document['traceEvents'])} events -> {trace_path} "
                "(open at chrome://tracing or ui.perfetto.dev)"
            )
    metrics_path = getattr(args, "metrics_out", None)
    if metrics_path:
        text = "\n\n".join(
            f"== {label} ==\n{utilization_summary(obs)}" for label, obs in sections
        )
        if metrics_path == "-":
            print(text)
        else:
            with open(metrics_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            print(f"metrics: {len(sections)} run summaries -> {metrics_path}")
    bottlenecks_path = getattr(args, "bottlenecks", None)
    if bottlenecks_path:
        report = profile([obs for _label, obs in sections])
        if bottlenecks_path == "-":
            print(report.format_text())
        elif bottlenecks_path.endswith(".json"):
            report.write_json(bottlenecks_path)
            print(f"bottlenecks: {report.flows} flows profiled -> {bottlenecks_path}")
        else:
            with open(bottlenecks_path, "w", encoding="utf-8") as fh:
                fh.write(report.format_text() + "\n")
            print(f"bottlenecks: {report.flows} flows profiled -> {bottlenecks_path}")


def _json_str(value: str) -> str:
    import json

    return json.dumps(value)


def _fig6(args) -> None:
    sizes = (200, 1000, 5000, 100_000) if args.quick else None
    result = run_fig6(
        **({} if sizes is None else {"buffer_sizes": sizes}),
        repeats=args.repeats,
        target_buffers=300 if args.quick else 1500,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(result.format_table())
    print(
        f"-> optimum: single={result.optimum(False).buffer_bytes} B, "
        f"double={result.optimum(True).buffer_bytes} B"
    )
    _export_observations(args, [
        (
            f"fig6 B={p.buffer_bytes} "
            f"{'double' if p.double_buffering else 'single'} r{i}",
            obs,
        )
        for p in result.points
        for i, obs in enumerate(p.result.observations)
    ])


def _fig8(args) -> None:
    sizes = (1000, 10_000, 200_000) if args.quick else None
    result = run_fig8(
        **({} if sizes is None else {"buffer_sizes": sizes}),
        repeats=args.repeats,
        target_buffers=250 if args.quick else 1200,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(result.format_table())
    print(f"-> balanced advantage: {result.balanced_advantage():.2f}x")
    _export_observations(args, [
        (
            f"fig8 B={p.buffer_bytes} "
            f"{'bal' if p.balanced else 'seq'}/"
            f"{'double' if p.double_buffering else 'single'} r{i}",
            obs,
        )
        for p in result.points
        for i, obs in enumerate(p.result.observations)
    ])


def _fig15(args) -> None:
    counts = (1, 2, 4, 5) if args.quick else (1, 2, 3, 4, 5, 6, 7, 8)
    result = run_fig15(
        stream_counts=counts,
        repeats=args.repeats,
        array_count=5 if args.quick else 10,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(result.format_table())
    peak = result.peak(5)
    print(f"-> Query 5 peak: {peak.mbps:.0f} Mbps")
    _export_observations(args, [
        (f"fig15 Q{p.query_number} n={p.n} r{i}", obs)
        for p in result.points
        for i, obs in enumerate(p.result.observations)
    ])


def _ablations(args) -> None:
    selection = run_node_selection_ablation(
        stream_counts=(4,) if args.quick else (2, 4, 6, 8),
        repeats=args.repeats,
        count=4 if args.quick else 10,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(selection.format_table())
    print()
    buffers = run_buffer_choice_ablation(
        buffer_sizes=(1000, 2000, 100_000)
        if args.quick
        else (500, 1000, 2000, 10_000, 100_000, 1_000_000),
        repeats=args.repeats,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(buffers.format_table())
    sections = [
        (f"ablation selector={r.selector_name} n={r.n} r{i}", obs)
        for r in selection.results
        for i, obs in enumerate(r.observations)
    ]
    sections.extend(
        (f"ablation buffers {pattern} B={size} r{i}", obs)
        for pattern, table in (("p2p", buffers.p2p), ("merge", buffers.merge))
        for size, result in sorted(table.items())
        for i, obs in enumerate(result.observations)
    )
    _export_observations(args, sections)


def _scaling(args) -> None:
    partitions = (((4, 4, 2), 4), ((4, 4, 4), 8)) if args.quick else None
    study = run_scaling_study(
        **({} if partitions is None else {"partitions": partitions}),
        repeats=args.repeats,
        array_count=3 if args.quick else 5,
        observe=_observe_level(args),
        jobs=args.jobs,
    )
    print(study.format_table())
    _export_observations(args, [
        (
            f"scaling Q{p.query_number} io={p.num_io_nodes} "
            f"uplink={p.uplink_gbps:g}G r{i}",
            obs,
        )
        for p in study.points
        for i, obs in enumerate(p.result.observations)
    ])


def _all(args) -> None:
    for name, runner in (
        ("fig6", _fig6),
        ("fig8", _fig8),
        ("fig15", _fig15),
        ("ablations", _ablations),
        ("scaling", _scaling),
    ):
        start = time.time()
        runner(args)
        print(f"[{name}: {time.time() - start:.1f}s]")
        print()


def _query(args) -> None:
    obs = instrumentation_for(_observe_level(args))
    if obs is not None:
        from repro.hardware.environment import Environment, EnvironmentConfig

        session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
    else:
        session = SCSQSession()
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
        _export_observations(args, [("query", obs)])


def _explain(args) -> None:
    print(SCSQSession().explain(args.text))


def _multiquery(args) -> None:
    from repro.core.experiments.contention import SHARED_PSET, run_contention_demo

    result = run_contention_demo(
        n=args.streams,
        array_bytes=args.array_bytes,
        count=args.count,
        seed=args.seed,
        live_window=live_window_arg(args),
    )
    print(result.format_table())
    worst = min(o.interference for o in result.outcomes)
    print(
        f"-> two concurrent CQs through pset {SHARED_PSET}'s I/O node: "
        f"worst query keeps {worst:.0%} of its solo bandwidth"
    )
    if result.live is not None:
        from repro.obs.export import live_table, write_timeseries_jsonl

        print()
        print(live_table(result.live))
        if args.live_out:
            lines = write_timeseries_jsonl(
                args.live_out, result.live, label="multiquery"
            )
            print(f"live: {lines} time-series records -> {args.live_out}")


def _adaptive(args) -> int:
    from repro.core.experiments.adaptive import (
        ADAPTIVE_POINTS,
        run_adaptive_point,
        write_health_events,
    )
    from repro.obs.live import DEFAULT_WINDOW

    if args.point not in ADAPTIVE_POINTS:
        print(f"adaptive: unknown point {args.point!r} "
              f"(known: {', '.join(ADAPTIVE_POINTS)})", file=sys.stderr)
        return 2
    comparison = run_adaptive_point(
        args.point,
        seed=args.seed,
        smoke=args.smoke,
        window=args.window if args.window is not None else DEFAULT_WINDOW,
        detector_kwargs=detector_kwargs(args),
    )
    print(comparison.format_table())
    if args.events_out:
        count = write_health_events(args.events_out, comparison.adaptive)
        print(f"health: {count} events -> {args.events_out}")
    return 0


#: Short aliases for the ``top`` sample points (full bench names work too).
_TOP_ALIASES = {
    "fig6": "fig6[B=100000,double]",
    "fig8": "fig8[B=100000,seq,double]",
    "fig15": "fig15[Q5,n=5]",
}


def _top(args) -> int:
    from repro.bench.benchmark import bench_points
    from repro.coordinator.deployer import Deployer
    from repro.hardware.environment import (
        Environment,
        EnvironmentConfig,
        shared_template,
    )
    from repro.obs.export import (
        LIVE_HEADER,
        live_footer,
        live_row,
        live_table,
        prometheus_exposition,
        write_timeseries_jsonl,
    )
    from repro.obs.live import DEFAULT_WINDOW
    from repro.scsql.plan import compile_plan
    from repro.util.units import MEGA

    points = {point.key: point for point in bench_points()}
    name = _TOP_ALIASES.get(args.point, args.point)
    point = points.get(name)
    if point is None:
        known = ", ".join(sorted(_TOP_ALIASES) + sorted(points))
        print(f"top: unknown sample point {args.point!r} (known: {known})",
              file=sys.stderr)
        return 2

    window = args.window if args.window is not None else DEFAULT_WINDOW
    streaming = not args.once
    if streaming:
        print(f"top: {point.key}, window {window * 1e3:g} ms "
              f"(simulated), seed {args.seed}")
        print(LIVE_HEADER)
        print("-" * len(LIVE_HEADER))
    obs, sampler = live_instrumentation(
        window, detector_kwargs(args),
        on_window=(lambda window: print(live_row(window))) if streaming else None,
    )
    config = EnvironmentConfig().with_seed(args.seed)
    env = Environment(config, obs=obs, template=shared_template(config))
    plan = compile_plan(point.query, settings=point.settings)
    report = Deployer(env).run(plan, settings=point.settings)
    sampler.finalize(env.sim.now)
    if streaming:
        footer = live_footer(sampler)
        if footer:
            print(footer)
    else:
        print(f"top: {point.key}, window {window * 1e3:g} ms "
              f"(simulated), seed {args.seed}")
        print(live_table(sampler))
    mbps = point.payload_bytes * 8.0 / report.duration / MEGA
    print(f"run: {report.duration * 1e3:.3f} ms simulated, {mbps:.2f} Mbps, "
          f"{len(sampler.windows)} window(s)")
    if args.live_out:
        lines = write_timeseries_jsonl(args.live_out, sampler, label=point.key)
        print(f"live: {lines} time-series records -> {args.live_out}")
    if args.prom:
        exposition = prometheus_exposition(obs)
        if args.prom == "-":
            print(exposition, end="")
        else:
            with open(args.prom, "w", encoding="utf-8") as fh:
                fh.write(exposition)
            print(f"prom: exposition snapshot -> {args.prom}")
    return 0


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SCSQ reproduction: regenerate the paper's experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, observable in (
        ("fig6", _fig6, True),
        ("fig8", _fig8, True),
        ("fig15", _fig15, True),
        ("ablations", _ablations, True),
        ("scaling", _scaling, True),
        ("all", _all, False),
    ):
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
        if observable:
            _add_observability_flags(p)
        p.set_defaults(func=func)
    from repro.bench.cli import add_bench_parser

    add_bench_parser(sub)
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
        "--window", type=float, default=None, metavar="SECS",
        help="live sampling window in simulated seconds (default 0.002)",
    )
    a.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="write the adaptive run's health events as JSON-lines "
             "(the CI smoke job uploads this artifact)",
    )
    add_detector_flags(a)
    add_sanitize_flags(a)
    a.set_defaults(func=_adaptive)
    t = sub.add_parser(
        "top",
        help="live telemetry viewer: stream per-window utilization and "
             "latency percentiles from one bench sample point",
    )
    t.add_argument(
        "--point", default="fig8", metavar="NAME",
        help="bench sample point to watch: fig6/fig8/fig15 aliases or a "
             "full bench point name (default fig8)",
    )
    t.add_argument(
        "--window", type=float, default=None, metavar="SECS",
        help="sampling window in simulated seconds (default 0.002)",
    )
    t.add_argument("--seed", type=int, default=0, help="environment seed")
    t.add_argument(
        "--once", action="store_true",
        help="print the finished table once instead of streaming rows "
             "(for CI)",
    )
    t.add_argument(
        "--live-out", metavar="PATH", default=None,
        help="also write the windowed time-series as JSON-lines",
    )
    t.add_argument(
        "--prom", metavar="PATH", default=None,
        help="write a Prometheus-style text exposition snapshot "
             "('-' prints to stdout)",
    )
    add_detector_flags(t)
    t.set_defaults(func=_top)
    q = sub.add_parser("query", help="execute one SCSQL statement")
    q.add_argument("text", help="the SCSQL statement")
    q.add_argument(
        "--stop-after", type=float, default=None,
        help="terminate the query at this simulated time (seconds)",
    )
    _add_observability_flags(q)
    q.set_defaults(func=_query)
    e = sub.add_parser("explain", help="show a query's process graph and placement")
    e.add_argument("text", help="the SCSQL select query")
    e.set_defaults(func=_explain)
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
    from repro.analysis.cli import add_analyze_parser

    add_analyze_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "_sanitize_wrap", False) and (
        args.sanitize or args.chaos_seed is not None
    ):
        return _run_sanitized(args)
    code = args.func(args)
    return 0 if code is None else int(code)


def _run_sanitized(args) -> int:
    """Run one subcommand under the sanitizer and/or the chaos scheduler."""
    from contextlib import ExitStack

    from repro.analysis import sanitize

    scope = None
    with ExitStack() as stack:
        if getattr(args, "chaos_seed", None) is not None:
            stack.enter_context(sanitize.chaos(args.chaos_seed))
        if getattr(args, "sanitize", False):
            scope = stack.enter_context(
                sanitize.sanitizer(label=f"cli:{args.command}", strict=False)
            )
        code = args.func(args)
    if scope is not None and scope.report.diagnostics:
        print(scope.report.format_text(), file=sys.stderr)
        return 1
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
