"""The benchmark harness's four modes.

* **gate mode** — a fast, deterministic subset of the paper's figure
  sweeps (:func:`bench_points`) run with flow tracing on, plus the
  4096-node ``scale`` figure and the adaptive-runtime points: bandwidth and
  flow-latency percentiles per point, all simulated (host time is the
  ledger's, ``benchmarks/ledger``).

The other three are the TPC-H-style driver over the numbered query streams
of :mod:`repro.bench.query_stream`:

* **power mode** — one stream (stream 0) runs the deck serially, each
  query alone on a freshly seeded environment; the figure of merit is
  end-to-end latency per query plus their geometric mean.
* **throughput mode** — N numbered streams run the deck concurrently:
  round r deploys every stream's r-th deck query into one
  :class:`~repro.core.multiquery.MultiQuerySession`, so the streams
  contend for the ingress links the paper measures.  Per-stream bandwidth
  is paired with a solo baseline (same plan, same seed, fresh
  environment) into an interference ratio.
* **fault mode** — throughput streams plus a deterministic
  :class:`~repro.bench.faults.FaultSchedule`; repeats fan out over
  :meth:`repro.core.parallel.SweepExecutor.map` and the recovery metrics
  (recovery time, bandwidth dip) land next to the bandwidth ones.

Every mode returns a :class:`BenchReport` whose ``metrics`` mapping obeys
the BENCH v2 naming convention (:func:`repro.bench.baseline.figure_of_metric`
reads the suite off the name's head), so ``repro bench --out/--baseline``
gates the recovery keys exactly like the bandwidth ones: each must equal
its baseline value.

Every query's result is checked against its workload's reference value;
a harness that reports fast wrong answers is worse than no harness.

Gate and power mode also report a
:func:`~repro.bench.baseline.physics_digest` per point or query, gated by
equality like the metrics.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.baseline import BENCH_FIGURES, figure_of_metric, physics_digest
from repro.bench.faults import FaultOutcome, FaultTask, run_fault_task
from repro.bench.query_stream import (
    DEFAULT_SCALE,
    BenchQuery,
    StreamScale,
    build_query,
    query_order,
    registered,
)
from repro.coordinator.deployer import Deployer
from repro.core.experiments.adaptive import ADAPTIVE_POINTS, run_adaptive_point
from repro.core.experiments import FIGURES
from repro.core.experiments.scale import DEFAULT_SHAPE, run_scale
from repro.core.measurement import PointSpec, measure_points
from repro.core.parallel import SweepExecutor
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
from repro.obs.instrument import OBSERVE_FLOWS, instrumentation_for, live_instrumentation
from repro.obs.live import LiveSampler
from repro.scsql.plan import compile_plan
from repro.util.errors import MeasurementError
from repro.util.record import Record
from repro.util.stats import latency_summary
from repro.util.units import MEGA


class BenchReport(Record):
    """One benchmark mode's outcome: gateable metrics plus a text report."""

    __slots__ = ("mode", "metrics", "lines", "series", "digests")

    def __init__(self, mode: str, metrics: Dict[str, float], lines: Optional[List[str]] = None,
                 series: Optional[Dict[str, dict]] = None,
                 digests: Optional[Dict[str, str]] = None) -> None:
        self.mode = mode
        self.metrics = metrics
        self.lines = [] if lines is None else lines
        #: Windowed live-telemetry series per run segment (query / round),
        #  present when the mode ran with ``live`` set.  Embedded under
        #  the BENCH JSON's ``series`` key; the regression gate reads only the
        #  scalar ``metrics``.
        self.series = series
        #: :func:`~repro.bench.baseline.physics_digest` per gate point or
        #  power-mode query, gated by equality beside ``metrics``.
        self.digests = {} if digests is None else digests

    def describe(self) -> str:
        return "\n".join(self.lines)


def _check_result(query: BenchQuery, result: List[object], context: str) -> None:
    if result != [query.expected_result]:
        raise MeasurementError(
            f"{context}: query {query.name} produced {result!r}, "
            f"expected [{query.expected_result!r}]"
        )


def _fresh_env(
    seed: int, live: bool = False, flows: bool = False
) -> "tuple[Environment, Optional[LiveSampler]]":
    """A fresh seeded environment: under a live hub if ``live``, else under
    a flows-level hub if ``flows`` (both record flows), else hooks off."""
    seeded = EnvironmentConfig().with_seed(seed)
    obs, sampler = live_instrumentation() if live else (None, None)
    if flows and obs is None:
        obs = instrumentation_for(OBSERVE_FLOWS)
    return shared_template(seeded).fork(seed=seeded.seed, obs=obs), sampler


# ----------------------------------------------------------------------
# Gate mode
# ----------------------------------------------------------------------
def bench_points() -> List[PointSpec]:
    """The fast figure-sweep subset the gate measures, keyed by point name
    (``"fig6[B=200,double]"``; :func:`figure_of_metric` names its figure).

    One point per mechanism the repo models: packet quantisation (fig6
    small vs large buffers), intermediate-co-processor routing (fig8
    sequential vs balanced), and the Ethernet ingress with and without
    I/O-node sharing (fig15 Q5 at n=4 vs n=5, Q1 at n=2) — the
    double-buffered points of each ``FIGURES`` row's ``gate`` arguments,
    named by the row's own point label in bracket form.
    """
    points: List[PointSpec] = []
    for sweeps in FIGURES.values():
        for sweep in sweeps:
            for arguments in sweep.gate:
                for spec in sweep.specs(**arguments):
                    if not getattr(spec.key, "double_buffering", True):
                        continue
                    figure, axes = sweep.point.format(k=spec.key).split(" ", 1)
                    name = f"{figure}[{axes.replace(' ', ',').replace('/', ',')}]"
                    points.append(spec.replace(key=name))
    return points


def run_bench(
    repeats: int = 1,
    jobs: int = 1,
    figures: Optional[Iterable[str]] = None,
    scale_shape: Optional[Tuple[int, int, int]] = None,
) -> BenchReport:
    """Measure every bench point of the requested figures.

    Each figure's points run as one
    :func:`~repro.core.measurement.measure_points` sweep, so with
    ``jobs > 1`` its (point, repeat) simulations fan out over worker
    processes; the report (metrics and lines) is identical either way.

    ``figures`` restricts the run to a subset of :data:`BENCH_FIGURES`
    (``None`` runs everything); ``scale_shape`` overrides the scale
    figure's torus (CI smoke runs a reduced 8x8x8).
    """
    figures = set(BENCH_FIGURES if figures is None else figures)
    unknown = figures - set(BENCH_FIGURES)
    if unknown:
        raise ValueError(
            f"unknown bench figure(s) {sorted(unknown)}; "
            f"expected a subset of {list(BENCH_FIGURES)}"
        )
    metrics: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    lines: List[str] = []
    sweeps: Dict[str, List[PointSpec]] = {}
    for point in bench_points():
        figure = figure_of_metric(point.key)
        if figure in figures:
            sweeps.setdefault(figure, []).append(point)
    for points in sweeps.values():
        results = measure_points(
            points, repeats=repeats, jobs=jobs, observe=OBSERVE_FLOWS
        )
        for point in points:
            result = results[point.key]
            latencies = result.flow_latencies()
            metrics[f"{point.key}/mbps"] = result.mean_mbps
            digests[point.key] = physics_digest(
                (obs.flows.completed, report.result)
                for obs, report in zip(result.observations, result.reports)
            )
            if latencies:
                summary = latency_summary(latencies)
                metrics[f"{point.key}/p50_ms"] = summary["p50"] * 1e3
                metrics[f"{point.key}/p95_ms"] = summary["p95"] * 1e3
            lines.append(f"{point.key}: {result.mean_mbps:.1f} Mbps, "
                         f"{len(latencies)} flows")
    if "scale" in figures:
        scale_result = run_scale(
            shape=scale_shape if scale_shape is not None else DEFAULT_SHAPE,
            progress=lines.append,
        )
        metrics.update(scale_result.metrics())
    if "adaptive" in figures:
        for point_name in ADAPTIVE_POINTS:
            comparison = run_adaptive_point(point_name, smoke=True)
            tag = f"adaptive[{point_name}]"
            metrics[f"{tag}/static_mbps"] = comparison.static_mbps
            metrics[f"{tag}/adaptive_mbps"] = comparison.adaptive_mbps
            metrics[f"{tag}/recover_s"] = comparison.recover_s
            metrics[f"{tag}/migrations"] = float(len(comparison.migrations))
            lines.append(
                f"{tag}: {comparison.static_mbps:.1f} -> "
                f"{comparison.adaptive_mbps:.1f} Mbps "
                f"(x{comparison.speedup:.2f}, "
                f"{len(comparison.migrations)} migration(s))"
            )
    return BenchReport(mode="gate", metrics=metrics, lines=lines, digests=digests)


# ----------------------------------------------------------------------
# Power mode
# ----------------------------------------------------------------------
def run_power_mode(
    scale: StreamScale = DEFAULT_SCALE,
    seed: int = 0,
    live: bool = False,
) -> BenchReport:
    """Stream 0 runs the deck serially; per-query latency is the metric.

    Each query runs with the flows hooks on, which move no simulated
    time, and its physics digest is taken from that run.  ``live`` watches
    each deck query with a fresh :class:`~repro.obs.live.LiveSampler` (its
    hub records flows too) and collects the windowed p50/p95/p99 series
    into ``report.series`` keyed by the query tag; the gated scalar metrics
    are unchanged by the instrumentation.
    """
    metrics: Dict[str, float] = {}
    digests: Dict[str, str] = {}
    series: Dict[str, dict] = {}
    lines = [f"power mode: deck scale {scale.name!r}, seed {seed}"]
    latencies_ms: List[float] = []
    for kind in query_order(0, seed):
        query = build_query(kind, 0, scale, seed)
        plan = compile_plan(query.query)
        with registered([query]):
            env, sampler = _fresh_env(seed, live, flows=True)
            deployer = Deployer(env)
            report = deployer.run(plan)
        _check_result(query, report.result, "power mode")
        digests[f"power[{kind}]"] = physics_digest(
            [(env.sim.obs.flows.completed, report.result)]
        )
        if sampler is not None:
            sampler.finalize(env.sim.now)
            series[f"power[{kind}]"] = sampler.series_document()
        # Report and series are taken; the teardown is what --sanitize audits.
        deployer.teardown()
        latency_ms = report.duration * 1e3
        mbps = query.payload_bytes * 8.0 / report.duration / MEGA
        metrics[f"power[{kind}]/latency_ms"] = latency_ms
        metrics[f"power[{kind}]/mbps"] = mbps
        latencies_ms.append(latency_ms)
        lines.append(f"  {kind:>12}: {latency_ms:8.3f} ms  {mbps:8.2f} Mbps")
    metrics["power/geomean_ms"] = math.exp(
        sum(math.log(value) for value in latencies_ms) / len(latencies_ms)
    )
    lines.append(f"  geometric mean latency: {metrics['power/geomean_ms']:.3f} ms")
    return BenchReport(mode="power", metrics=metrics, lines=lines,
                       series=series or None, digests=digests)


# ----------------------------------------------------------------------
# Throughput mode
# ----------------------------------------------------------------------
def run_throughput_mode(
    streams: int,
    scale: StreamScale = DEFAULT_SCALE,
    seed: int = 0,
    rounds: Optional[int] = None,
    live: bool = False,
) -> BenchReport:
    """N interleaved streams; per-stream bandwidth and interference ratios.

    Round r runs every stream's r-th deck query concurrently on one fresh
    environment (all rounds reuse the same seed, so placement is
    reproducible), then each query solo on its own, and compares the
    query's concurrent bandwidth with its solo one.  ``rounds`` truncates the deck (the
    ``--smoke`` path).  ``live`` watches each concurrent round with a
    fresh :class:`~repro.obs.live.LiveSampler` (solo baselines stay
    uninstrumented) and collects windowed series into ``report.series``.
    """
    if streams < 1:
        raise MeasurementError(f"need at least one stream, got {streams}")
    orders = [query_order(k, seed) for k in range(streams)]
    deck_len = len(orders[0]) if rounds is None else min(rounds, len(orders[0]))
    tag = f"throughput[n={streams}]"
    lines = [
        f"throughput mode: {streams} streams x {deck_len} round(s), "
        f"deck scale {scale.name!r}, seed {seed}"
    ]
    payload_bits: Dict[int, float] = {k: 0.0 for k in range(streams)}
    concurrent_s: Dict[int, float] = {k: 0.0 for k in range(streams)}
    ratios: Dict[int, List[float]] = {k: [] for k in range(streams)}
    series: Dict[str, dict] = {}
    for round_no in range(deck_len):
        queries = [
            build_query(orders[k][round_no], k, scale, seed)
            for k in range(streams)
        ]
        plans = [compile_plan(q.query) for q in queries]
        with registered(queries):
            env, sampler = _fresh_env(seed, live)
            session = MultiQuerySession(env)
            for query, plan in zip(queries, plans):
                session.submit(plan, query.payload_bytes, label=f"s{query.stream_id}")
            result = session.run()
            if sampler is not None:
                sampler.finalize(env.sim.now)
                series[f"{tag}/round{round_no}"] = sampler.series_document()
            # Results and series are taken; the teardowns are for --sanitize.
            session.teardown()
            solo_bandwidth: Dict[int, float] = {}
            for query, plan in zip(queries, plans):
                solo_env, _ = _fresh_env(seed)
                solo = Deployer(solo_env)
                solo_report = solo.run(plan)
                solo.teardown()
                _check_result(query, solo_report.result, "throughput solo")
                solo_bandwidth[query.stream_id] = (
                    query.payload_bytes * 8.0 / solo_report.duration / MEGA
                )
        for query in queries:
            outcome = result[f"s{query.stream_id}"]
            _check_result(query, outcome.report.result, "throughput mode")
            payload_bits[query.stream_id] += query.payload_bytes * 8.0
            concurrent_s[query.stream_id] += outcome.report.duration
            ratio = outcome.mbps / solo_bandwidth[query.stream_id]
            ratios[query.stream_id].append(ratio)
            lines.append(
                f"  round {round_no} s{query.stream_id} "
                f"{query.kind:>12}: {outcome.mbps:8.2f} Mbps"
                f"  solo {solo_bandwidth[query.stream_id]:8.2f} Mbps  ratio {ratio:.2f}"
            )
    metrics: Dict[str, float] = {}
    for k in range(streams):
        metrics[f"{tag}[s{k}]/mbps"] = payload_bits[k] / concurrent_s[k] / MEGA
        metrics[f"{tag}[s{k}]/interference"] = sum(ratios[k]) / len(ratios[k])
    metrics[f"{tag}/aggregate_mbps"] = sum(
        metrics[f"{tag}[s{k}]/mbps"] for k in range(streams)
    )
    for k in range(streams):
        lines.append(
            f"  s{k}: {metrics[f'{tag}[s{k}]/mbps']:8.2f} Mbps"
            f"  interference {metrics[f'{tag}[s{k}]/interference']:.2f}"
        )
    lines.append(f"  aggregate: {metrics[f'{tag}/aggregate_mbps']:.2f} Mbps")
    return BenchReport(mode="throughput", metrics=metrics, lines=lines,
                       series=series or None)


# ----------------------------------------------------------------------
# Fault mode
# ----------------------------------------------------------------------
def run_fault_benchmark(
    scenario: str,
    streams: int,
    scale: StreamScale = DEFAULT_SCALE,
    seed: int = 0,
    repeats: int = 1,
    jobs: int = 1,
) -> BenchReport:
    """Concurrent streams with a mid-run failure; recovery is the metric.

    Repeat i runs with seed ``seed + i`` (fresh environments, fresh victim
    selection); metrics are means over the repeats.  ``jobs > 1`` fans the
    repeats over worker processes with bit-identical results.
    """
    tasks = [
        FaultTask(seed=seed + i, streams=streams, scenario=scenario, scale=scale)
        for i in range(repeats)
    ]
    outcomes: List[FaultOutcome] = SweepExecutor(jobs).map(run_fault_task, tasks)
    for outcome in outcomes:
        if not outcome.results_ok:
            raise MeasurementError(
                f"fault benchmark (seed {outcome.seed}): a stream's final "
                "result does not match its workload reference"
            )
    tag = f"fault[{scenario},n={streams}]"
    mean = lambda values: sum(values) / len(values)
    metrics: Dict[str, float] = {
        f"{tag}/recovery_s": mean([o.recovery_s for o in outcomes]),
        f"{tag}/retained_ratio": mean([o.bandwidth_retained for o in outcomes]),
        f"{tag}/makespan_ms": mean([o.faulted_makespan for o in outcomes]) * 1e3,
        f"{tag}/aggregate_mbps": mean([o.aggregate_mbps for o in outcomes]),
    }
    for k in range(streams):
        metrics[f"{tag}[s{k}]/mbps"] = mean(
            [o.per_stream_mbps[f"s{k}"] for o in outcomes]
        )
    lines = [
        f"fault mode: scenario {scenario!r}, {streams} streams, "
        f"{repeats} repeat(s), deck scale {scale.name!r}, seed {seed}"
    ]
    for outcome in outcomes:
        lines.append(
            f"  seed {outcome.seed}: fault at {outcome.fault_time * 1e3:.3f} ms"
            + (
                f", failed {', '.join(outcome.failed_nodes)}"
                if outcome.failed_nodes
                else ""
            )
            + (
                f", degraded {', '.join(outcome.degraded)}"
                if outcome.degraded
                else ""
            )
            + (
                f", {', '.join(outcome.restored)}"
                if outcome.restored
                else ""
            )
            + f", replanned {len(outcome.replacements)} stream(s)"
        )
    for k in range(streams):
        lines.append(f"  s{k}: {metrics[f'{tag}[s{k}]/mbps']:8.2f} Mbps")
    lines.append(f"  aggregate:      {metrics[f'{tag}/aggregate_mbps']:.2f} Mbps")
    lines.append(f"  recovery time:  {metrics[f'{tag}/recovery_s'] * 1e3:.3f} ms")
    lines.append(
        f"  bandwidth dip:  {100.0 * (1.0 - metrics[f'{tag}/retained_ratio']):.1f}% "
        f"(retained ratio {metrics[f'{tag}/retained_ratio']:.3f})"
    )
    lines.append(f"  makespan:       {metrics[f'{tag}/makespan_ms']:.3f} ms")
    return BenchReport(mode="fault", metrics=metrics, lines=lines)
