"""The bandwidth-measurement harness.

The paper's method (section 3): "The bandwidth is computed by measuring the
total time to communicate a finite stream of 3MB arrays between stream
processes ... Each experiment was performed five times in order to achieve
low variance in the measurements."

:func:`measure_points` reproduces that method: it runs each SCSQL query on a
*fresh* simulated environment per repeat (with a distinct jitter seed),
divides the known payload volume by the simulated execution time, and
summarizes the repeats.  A point may also be a session of labelled
queries run concurrently on one environment; a repeat then measures the sum
of their bandwidths.  It is the only code that builds per-repeat
:class:`~repro.core.parallel.SweepTask` payloads;
:func:`measure_query_bandwidth` is its one-point form.

A measured figure is data under that protocol: a
:class:`~repro.core.experiments.figures.Sweep` row (its spec builder plus how
its table reads), run by :func:`run_sweep` into a :class:`SweepResult`.  The
rows live in :data:`repro.core.experiments.FIGURES`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.coordinator.deployer import ExecutionReport
from repro.core.parallel import SELECTORS, SweepExecutor, SweepTask, TaskOutcome, compile_queries
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.instrument import OBSERVE_NONE, Instrumentation, check_level
from repro.util.record import Frozen, Record
from repro.util.stats import MeasurementStats, summarize
from repro.util.units import MEGA

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport
    from repro.core.experiments.figures import Sweep
    from repro.core.multiquery import MultiQueryResult
    from repro.core.parallel import Plans, Queries

#: The paper repeats every experiment five times.
DEFAULT_REPEATS = 5


class BandwidthResult(Record):
    """Outcome of one repeated bandwidth measurement.

    Attributes:
        mbps: Bandwidth statistics over the repeats, in megabits/second.
        payload_bytes: The payload volume each run (each session query) streamed.
        reports: The raw execution report of every repeat; a session point's
            :class:`~repro.core.multiquery.MultiQueryResult`, one outcome per label.
        observations: One :class:`~repro.obs.Instrumentation` per repeat,
            in seed order, when the measurement was observed (empty
            otherwise); repeat k's frozen metrics are
            ``observations[k].snapshot()`` (a hub rebuilt from a worker's
            flow records has an empty registry).
    """

    __slots__ = ("mbps", "payload_bytes", "reports", "observations")

    def __init__(self, mbps: MeasurementStats, payload_bytes: int,
                 reports: Optional[List[Union[ExecutionReport, MultiQueryResult]]] = None,
                 observations: Optional[List[Instrumentation]] = None) -> None:
        self.mbps = mbps
        self.payload_bytes = payload_bytes
        self.reports = [] if reports is None else reports
        self.observations = [] if observations is None else observations

    @property
    def mean_mbps(self) -> float:
        return self.mbps.mean

    def flow_latencies(self) -> List[float]:
        """End-to-end flow latencies pooled over the observed repeats.

        Empty unless the measurement was observed at ``"flows"`` or
        ``"trace"``; see :meth:`repro.obs.flow.FlowRecorder.latencies`.
        """
        return [
            latency
            for obs in self.observations
            for latency in obs.flows.latencies()
        ]

    def __str__(self) -> str:
        return f"{self.mbps.mean:.1f} ± {self.mbps.std:.1f} Mbps"


class PointSpec(Frozen):
    """One sweep point of a multi-point measurement.

    Attributes:
        key: Hashable identity of the point (e.g. ``("fig6", 200, True)``);
            the result table of :func:`measure_points` is keyed by it.
        query: The SCSQL select query to run, or a session: ``(label, text)``
            per query, placed in that order and run concurrently on one environment.
        payload_bytes: Payload volume each query streams.
        settings: Engine settings, or None for defaults.
        selector: Optional node-selector name (ablation path); see
            :data:`repro.core.parallel.SELECTORS`.
        env_config: The point's own environment (the scaling study grows
            the partition per point), or None for the sweep's.
    """

    key: Any
    query: Queries
    payload_bytes: int
    settings: Optional[ExecutionSettings]
    selector: Optional[str]
    env_config: Optional[EnvironmentConfig]
    __slots__ = ("key", "query", "payload_bytes", "settings", "selector", "env_config")

    def __init__(self, key: Any, query: Queries, payload_bytes: int,
                 settings: Optional[ExecutionSettings] = None, selector: Optional[str] = None,
                 env_config: Optional[EnvironmentConfig] = None) -> None:
        self._set_fields(key, query, payload_bytes, settings, selector, env_config)


def key_label(key: Any) -> str:
    """How a point key reads in a label.  A ``NamedTuple`` key prints as the
    plain tuple it equals — ``(200, True)``, not ``Fig6Key(buffer_bytes=200,
    ...)`` — so labels do not change when a key type gains a name."""
    return str(tuple(key) if isinstance(key, tuple) else key)


def verify_point(
    plan: Plans, spec: PointSpec, config: EnvironmentConfig, label: str
) -> AnalysisReport:
    """Statically verify one sweep point as it will run: its plan (compiled
    with the point's settings) on the sweep's topology, placed by the
    point's selector.  A session's queries verify in order, each against
    the nodes the earlier ones hold, so a collision is the ``SCSQ201``
    that ``MultiQuerySession.submit`` would raise.

    :func:`measure_points` raises on a failing report — one
    :class:`~repro.util.errors.PlanVerificationError` naming the malformed
    point *before* any worker spins up instead of a mid-sweep crash.
    Warnings (capacity bounds) pass; many legitimate sweep points are
    deliberately link-bound.
    """
    from repro.analysis.diagnostics import AnalysisReport
    from repro.analysis.verifier import verify_plan
    from repro.coordinator.allocation import NaiveSelector
    from repro.coordinator.resolver import resolve_placement

    selector = SELECTORS[spec.selector]() if spec.selector else None
    if not isinstance(plan, tuple):
        return verify_plan(plan, config=config, label=label, selector=selector)
    env = shared_template(config).fork(seed=config.seed)
    report = AnalysisReport(label=label)
    for _query, each in plan:
        report.extend(verify_plan(each, env=env, label=label))
        if not report.ok():
            break
        resolve_placement(each.graph, env, NaiveSelector())  # holds its nodes
    env.template.reset()
    return report


def _mbps(report: Union[ExecutionReport, MultiQueryResult], payload_bytes: int) -> float:
    """One repeat's bandwidth; a session's is the sum of its queries'."""
    if isinstance(report, ExecutionReport):
        return payload_bytes * 8.0 / report.duration / MEGA
    return sum(outcome.mbps for outcome in report.outcomes)


def _result_from_outcomes(
    outcomes: Sequence[TaskOutcome], payload_bytes: int
) -> BandwidthResult:
    """Assemble one point's :class:`BandwidthResult` from its repeats."""
    return BandwidthResult(
        mbps=summarize([_mbps(o.report, payload_bytes) for o in outcomes]),
        payload_bytes=payload_bytes,
        reports=[o.report for o in outcomes],
        observations=[o.observation() for o in outcomes if o.observed],
    )


def measure_points(
    specs: Sequence[PointSpec],
    repeats: int = DEFAULT_REPEATS,
    env_config: Optional[EnvironmentConfig] = None,
    base_seed: int = 0,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
) -> Dict[Any, BandwidthResult]:
    """Measure several sweep points, fanning every (point, repeat) task out.

    All ``len(specs) * repeats`` simulations are independent, so they are
    submitted to one :class:`~repro.core.parallel.SweepExecutor` together
    — with ``jobs > 1`` the whole figure sweep parallelizes, not just the
    repeats of one point.  Results come back keyed by ``spec.key``, each
    assembled from its repeats in seed order regardless of completion
    order, so the table is bit-identical to a serial sweep.

    A point runs on its own ``spec.env_config`` when it has one, else on
    ``env_config`` (default: the paper's testbed).

    ``observe`` is one of :data:`~repro.obs.instrument.OBSERVE_LEVELS`; each
    repeat's hub (a session's queries share it) lands on its point's
    ``observations``.  ``"metrics"`` and
    ``"trace"`` run in-process whatever ``jobs`` says (see
    :meth:`~repro.core.parallel.SweepExecutor.run`).

    Raises:
        ValueError: On ``repeats < 1``, an unknown ``observe`` level or two
            specs sharing a key — all before anything is compiled.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    check_level(observe)
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        duplicates = sorted({repr(key) for key in keys if keys.count(key) > 1})
        raise ValueError(f"duplicate sweep point key(s): {', '.join(duplicates)}")
    default = env_config or EnvironmentConfig()
    configs = {spec.key: spec.env_config or default for spec in specs}
    # Compile each point once; its (picklable) plan is shared by all the
    # point's repeat tasks instead of being recompiled per repeat/worker.
    plans = {spec.key: compile_queries(spec.query, spec.settings) for spec in specs}
    for spec in specs:
        verify_point(
            plans[spec.key], spec, configs[spec.key], key_label(spec.key)
        ).raise_if_failed()
    tasks = [
        SweepTask(
            point_key=spec.key,
            seed=base_seed + k,
            query=spec.query,
            payload_bytes=spec.payload_bytes,
            settings=spec.settings,
            env_config=configs[spec.key],
            observe=observe,
            selector=spec.selector,
            plan=plans[spec.key],
        )
        for spec in specs
        for k in range(repeats)
    ]
    outcomes = SweepExecutor(jobs).run(tasks)
    return {
        spec.key: _result_from_outcomes(
            outcomes[index * repeats:(index + 1) * repeats], spec.payload_bytes
        )
        for index, spec in enumerate(specs)
    }


def measure_query_bandwidth(
    query: str,
    payload_bytes: int,
    settings: Optional[ExecutionSettings] = None,
    repeats: int = DEFAULT_REPEATS,
    base_seed: int = 0,
    observe: str = OBSERVE_NONE,
) -> BandwidthResult:
    """Measure the streaming bandwidth of one SCSQL query, serially on the
    paper's testbed.

    The one-point form of :func:`measure_points`, which documents
    ``observe``.

    Args:
        query: The SCSQL select query to run.
        payload_bytes: Total payload the query streams over the measured
            path (e.g. n * count * array_bytes); bandwidth is this volume
            divided by the simulated execution time.
        settings: Engine settings (buffer size, buffering mode).
        repeats: Number of independent runs (paper: five).
        base_seed: Seed of the first repeat; repeat k uses base_seed + k.

    Returns:
        The summarized result, with per-run reports attached.
    """
    spec = PointSpec(key="point", query=query, payload_bytes=payload_bytes, settings=settings)
    results = measure_points([spec], repeats=repeats, base_seed=base_seed, observe=observe)
    return results["point"]


Row = Dict[str, Union[int, float, str, bool]]


class SweepResult(Record):
    """A measured sweep: ``points`` maps each key to its result, in the
    builder's order."""

    __slots__ = ("sweep", "points")

    def __init__(self, sweep: Sweep, points: Dict[Any, BandwidthResult]) -> None:
        self.sweep = sweep
        self.points = points

    def at(self, *key: Any) -> BandwidthResult:
        """The result at one key; ``KeyError`` if it was not measured."""
        return self.points[key]

    def curve(self, **fixed: Any) -> List[Tuple[Any, BandwidthResult]]:
        """The ``(key, result)`` pairs whose key has the ``fixed`` axis
        values, ordered along the remaining axes."""
        return [
            (key, self.points[key])
            for key in sorted(self.points)
            if all(getattr(key, axis) == value for axis, value in fixed.items())
        ]

    def best(self, **fixed: Any) -> Tuple[Any, BandwidthResult]:
        """The highest-bandwidth point of one curve."""
        return max(self.curve(**fixed), key=lambda pair: pair[1].mean_mbps)

    def format_table(self) -> str:
        """The sweep as text: one row per ``sweep.row`` value (sorted), one
        column per combination of ``sweep.columns`` values (in the builder's
        order), ``-`` where a combination was not measured."""
        sweep = self.sweep
        if sweep.table is not None:
            return sweep.table(self)
        headers: Dict[Tuple[Any, ...], str] = {}
        cells: Dict[Tuple[Any, Tuple[Any, ...]], str] = {}
        for key, result in self.points.items():
            column = tuple(getattr(key, axis) for axis in sweep.columns)
            headers.setdefault(column, sweep.column.format(k=key))
            cells[getattr(key, sweep.row), column] = str(result)
        width = len(sweep.row_header)
        lines = [
            sweep.title,
            sweep.row_header + "".join(f"  {h:>14}" for h in headers.values()),
        ]
        for row in sorted({row for row, _column in cells}):
            lines.append(
                f"{row:>{width}}"
                + "".join(f"  {cells.get((row, c), '-'):>14}" for c in headers)
            )
        return "\n".join(lines)

    def rows(self) -> List[Row]:
        """Plot-ready rows: the key's fields plus the bandwidth statistics,
        sorted by key."""
        return [
            {
                **key._asdict(),
                "mbps_mean": point.mbps.mean,
                "mbps_std": point.mbps.std,
                "repeats": len(point.mbps.samples),
            }
            for key, point in self.curve()
        ]


def run_sweep(
    sweep: Sweep,
    repeats: int = DEFAULT_REPEATS,
    env_config: Optional[EnvironmentConfig] = None,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
    **sweep_args: Any,
) -> SweepResult:
    """Measure one figure: ``sweep.specs(**sweep_args)`` through
    :func:`measure_points`, which documents the other arguments."""
    return SweepResult(
        sweep,
        measure_points(
            sweep.specs(**sweep_args), repeats=repeats, env_config=env_config,
            jobs=jobs, observe=observe,
        ),
    )
