"""``python -m repro bench``: run one mode of the harness, record, compare;
``python -m repro top``: watch one of its sample points live.

Usage::

    python -m repro bench [--mode gate|power|throughput] [--fault SCENARIO]
                          [--out B.json] [--baseline B.json] [--jobs N]
                          [--only FIGURE] [--scale-shape XxYxZ]
                          [--live-out PATH]
    python -m repro bench diff OLD.json NEW.json
    python -m repro top [--point NAME] [--once]
                        [--live-out PATH] [--prom PATH]

The default mode is the perf-regression gate: it records the fast
figure-sweep bandwidths and flow-latency percentiles (plus the 4096-node
``scale`` figure's aggregate bandwidth) to a BENCH JSON file and/or
compares them against a committed baseline key for key, exiting 1 when
any value differs.  ``--only`` restricts the run to named figures and
``--scale-shape`` shrinks the scale torus.  Every mode
returns a :class:`~repro.bench.benchmark.BenchReport`, compared against
the baseline keys of the suites it was asked to produce (see
:mod:`repro.bench.baseline` and ``docs/benchmarking.md``).  ``bench diff``
compares two documents of the host-time ledger instead (a
``benchmarks/trajectory/prN.json`` point or a ``run.py --out`` file),
exiting 1 on a regression past a ``BENCHMARK.json`` bound; it is run from
the repository root.

``top`` runs one :func:`~repro.bench.benchmark.bench_points` point under a
:class:`~repro.obs.live.LiveSampler` and renders its per-window
utilization/latency table as the simulation produces it
(``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Tuple

from repro.bench.baseline import (
    BENCH_FIGURES,
    compare_bench,
    diff_ledger,
    figure_of_metric,
    load_bench,
    load_digests,
    write_bench,
)
from repro.cli_flags import add_live_flags, add_sanitize_flags
from repro.obs.null import DEFAULT_WINDOW
from repro.util.units import MEGA

__all__ = ["add_bench_parser", "add_top_parser"]

#: The flags each mode reads, by argparse dest, beyond the ones every mode
#: does (--out/--baseline, the sanitizer pair).
#: ``fault`` is ``--mode throughput`` with ``--fault``.  Passing a flag the
#: selected mode does not read is a usage error, not a silent no-op.
_MODE_FLAGS = {
    "gate": ("repeats", "jobs", "only", "scale_shape"),
    "power": ("seed", "smoke", "live_out"),
    "throughput": ("streams", "fault", "seed", "smoke", "live_out"),
    "fault": ("streams", "fault", "seed", "smoke", "repeats", "jobs"),
}
_MODE_NAMES = {"fault": "throughput --fault"}


def _parse_torus_shape(text: str) -> Tuple[int, int, int]:
    parts = text.lower().split("x")
    if len(parts) != 3 or not all(p.isdigit() and int(p) > 0 for p in parts):
        raise argparse.ArgumentTypeError(
            f"torus shape must look like 16x16x16, got {text!r}"
        )
    x, y, z = (int(p) for p in parts)
    return (x, y, z)


def _usage_error(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _bench(args: argparse.Namespace, default: Callable[[str], Any]) -> int:
    from repro.bench.benchmark import (
        run_bench,
        run_fault_benchmark,
        run_power_mode,
        run_throughput_mode,
    )
    from repro.bench.query_stream import DEFAULT_SCALE, SMOKE_SCALE

    mode = "fault" if args.mode == "throughput" and args.fault else args.mode
    for dest in sorted({d for flags in _MODE_FLAGS.values() for d in flags}):
        if dest not in _MODE_FLAGS[mode] and getattr(args, dest) != default(dest):
            readers = ", ".join(
                _MODE_NAMES.get(m, m) for m, flags in _MODE_FLAGS.items()
                if dest in flags
            )
            return _usage_error(
                f"--{dest.replace('_', '-')} is not read by --mode "
                f"{_MODE_NAMES.get(mode, mode)} (modes that read it: {readers})"
            )
    if not args.out and not args.baseline and mode == "gate":
        return _usage_error("nothing to do (pass --out and/or --baseline)")
    live = args.live_out is not None
    scale = SMOKE_SCALE if args.smoke else DEFAULT_SCALE
    suites = set(args.only or BENCH_FIGURES) if mode == "gate" else {mode}
    if mode == "gate":
        report = run_bench(
            repeats=args.repeats, jobs=args.jobs,
            figures=suites, scale_shape=args.scale_shape,
        )
    elif mode == "power":
        report = run_power_mode(scale=scale, seed=args.seed, live=live)
    elif mode == "fault":
        report = run_fault_benchmark(
            args.fault,
            args.streams,
            scale=scale,
            seed=args.seed,
            repeats=args.repeats,
            jobs=args.jobs,
        )
    else:
        report = run_throughput_mode(
            args.streams,
            scale=scale,
            seed=args.seed,
            rounds=1 if args.smoke else None,
            live=live,
        )
    print(report.describe())
    metrics = report.metrics
    series = report.series
    if series and args.live_out:
        with open(args.live_out, "w", encoding="utf-8") as fh:
            for segment in sorted(series):
                fh.write(json.dumps({"label": segment, **series[segment]}) + "\n")
        print(f"live: {len(series)} windowed series -> {args.live_out}")
    if args.out:
        write_bench(args.out, metrics, repeats=args.repeats, series=series,
                    digests=report.digests)
        print(f"bench: {len(metrics)} metrics -> {args.out}"
              + (f" (+{len(series)} windowed series)" if series else ""))
    if args.baseline:
        problems = 0
        for recorded, measured, what in (
            (load_bench(args.baseline), metrics, "metric"),
            (load_digests(args.baseline), report.digests, "digest"),
        ):
            # Suites the run was not asked to produce must not read as "missing".
            baseline = {
                name: value for name, value in recorded.items()
                if figure_of_metric(name) in suites
            }
            if not baseline and not measured:
                continue  # a mode that records no digests
            lines, differ = compare_bench(baseline, measured, what)
            print("\n".join(lines))
            problems += differ
        if problems:
            return 1
    return 0


def _diff(args: argparse.Namespace) -> int:
    # Run from the repository root, as the ledger is: its declarations are there.
    lines, problems = diff_ledger(args.old, args.new, "BENCHMARK.json")
    print("\n".join(lines))
    return 1 if problems else 0


def add_bench_parser(sub: Any) -> None:
    """Register the ``bench`` subcommand on a subparsers object."""
    b = sub.add_parser(
        "bench",
        help="perf-regression gate: record/compare the BENCH baseline",
    )
    b.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the measured metrics as a BENCH JSON file",
    )
    b.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="compare against this BENCH JSON file; exit 1 if any value differs",
    )
    b.add_argument("--repeats", type=int, default=1, help="runs per bench point")
    b.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the bench sweeps (the report is "
             "identical at any N)",
    )
    b.add_argument(
        "--mode", choices=("gate", "power", "throughput"), default="gate",
        help="'gate' (default) runs the figure-sweep regression subset; "
             "'power' runs the numbered-stream deck serially and reports "
             "per-query latency; 'throughput' interleaves N streams and "
             "reports per-stream bandwidth (see docs/benchmarking.md)",
    )
    b.add_argument(
        "--streams", type=int, default=4, metavar="N",
        help="number of concurrent query streams in throughput mode",
    )
    b.add_argument(
        "--fault", metavar="SCENARIO", default=None,
        choices=("kill-node", "kill-io-node", "degrade-link", "degrade-uplink",
                 "correlated", "flapping"),
        help="inject a mid-run failure into the throughput run and report "
             "recovery time and bandwidth dip (kill-node, kill-io-node, "
             "degrade-link, degrade-uplink, or the composites: correlated "
             "= node death plus uplink degradation in one window, flapping "
             "= transient uplink degrade/restore cycles)",
    )
    b.add_argument(
        "--seed", type=int, default=0,
        help="base seed of the power/throughput/fault runs (repeat i uses "
             "seed+i); identical seeds reproduce identical numbers",
    )
    b.add_argument(
        "--smoke", action="store_true",
        help="CI smoke scale: small deck workloads, one throughput round",
    )
    b.add_argument(
        "--only", action="append", metavar="FIGURE", default=None,
        choices=BENCH_FIGURES,
        help="restrict a gate run to one figure subset (repeatable: "
             "fig6, fig8, fig15, scale, adaptive); a --baseline comparison "
             "is then subset to the same figures",
    )
    b.add_argument(
        "--scale-shape", metavar="XxYxZ", default=None,
        type=_parse_torus_shape,
        help="torus shape of the scale figure (default 16x16x16); CI "
             "smoke runs a reduced 8x8x8",
    )
    add_live_flags(b)
    add_sanitize_flags(b)
    b.set_defaults(func=lambda args: _bench(args, b.get_default))
    actions = b.add_subparsers(metavar="{diff}")
    d = actions.add_parser(
        "diff",
        help="compare two host-time ledger documents (benchmarks/trajectory/"
             "prN.json or benchmarks/ledger/run.py --out): ratio and verdict "
             "per workload and metric; exit 1 on a regression",
    )
    d.add_argument("old", metavar="OLD", help="the earlier ledger document")
    d.add_argument("new", metavar="NEW", help="the later ledger document")
    d.set_defaults(func=_diff)


#: Short aliases for the ``top`` sample points (full bench names work too).
_TOP_ALIASES = {
    "fig6": "fig6[B=100000,double]",
    "fig8": "fig8[B=100000,seq,double]",
    "fig15": "fig15[Q5,n=5]",
}


def _top(args: argparse.Namespace) -> int:
    from repro.bench.benchmark import bench_points
    from repro.coordinator.deployer import Deployer
    from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
    from repro.obs.export import (
        LIVE_HEADER,
        live_footer,
        live_row,
        live_table,
        prometheus_exposition,
        write_timeseries_jsonl,
    )
    from repro.obs.instrument import live_instrumentation
    from repro.scsql.plan import compile_plan

    points = {point.key: point for point in bench_points()}
    name = _TOP_ALIASES.get(args.point, args.point)
    point = points.get(name)
    if point is None:
        known = ", ".join(sorted(_TOP_ALIASES) + sorted(points))
        print(f"top: unknown sample point {args.point!r} (known: {known})",
              file=sys.stderr)
        return 2

    title = (f"top: {point.key}, window {DEFAULT_WINDOW * 1e3:g} ms "
             f"(simulated), seed {args.seed}")
    streaming = not args.once
    if streaming:
        print(title)
        print(LIVE_HEADER)
        print("-" * len(LIVE_HEADER))
    obs, sampler = live_instrumentation(
        on_window=(lambda window: print(live_row(window))) if streaming else None,
    )
    config = EnvironmentConfig().with_seed(args.seed)
    env = Environment(config, obs=obs, template=shared_template(config))
    plan = compile_plan(point.query, settings=point.settings)
    deployer = Deployer(env)
    report = deployer.run(plan, settings=point.settings)
    sampler.finalize(env.sim.now)
    if streaming:
        footer = live_footer(sampler)
        if footer:
            print(footer)
    else:
        print(title)
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
    # Everything is printed and written; the teardown is what a sanitizer audits.
    deployer.teardown()
    return 0


def add_top_parser(sub: Any) -> None:
    """Register the ``top`` subcommand on a subparsers object."""
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
    t.add_argument("--seed", type=int, default=0, help="environment seed")
    t.add_argument(
        "--once", action="store_true",
        help="print the finished table once instead of streaming rows "
             "(for CI)",
    )
    add_live_flags(t)
    t.add_argument(
        "--prom", metavar="PATH", default=None,
        help="write a Prometheus-style text exposition snapshot "
             "('-' prints to stdout)",
    )
    t.set_defaults(func=_top)
