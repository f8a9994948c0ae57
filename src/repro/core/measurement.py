"""The bandwidth-measurement harness.

The paper's method (section 3): "The bandwidth is computed by measuring the
total time to communicate a finite stream of 3MB arrays between stream
processes ... Each experiment was performed five times in order to achieve
low variance in the measurements."

:func:`measure_query_bandwidth` reproduces that method: it runs one SCSQL
query on a *fresh* simulated environment per repeat (with a distinct jitter
seed), divides the known payload volume by the simulated execution time,
and summarizes the repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.coordinator.deployer import ExecutionReport
from repro.core.parallel import (
    OBSERVE_NONE,
    SweepExecutor,
    SweepTask,
    TaskOutcome,
    run_sweep_task,
)
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig
from repro.obs.instrument import Instrumentation
from repro.scsql.plan import compile_plan
from repro.scsql.session import SCSQSession
from repro.util.errors import MeasurementError
from repro.util.stats import MeasurementStats, summarize
from repro.util.units import MEGA

#: The paper repeats every experiment five times.
DEFAULT_REPEATS = 5


@dataclass
class BandwidthResult:
    """Outcome of one repeated bandwidth measurement.

    Attributes:
        mbps: Bandwidth statistics over the repeats, in megabits/second.
        payload_bytes: The payload volume each run streamed.
        reports: The raw execution report of every repeat.
        observations: One :class:`~repro.obs.Instrumentation` per repeat
            when the measurement was observed (empty otherwise); repeat k's
            metrics snapshot is also on ``reports[k].metrics``.
    """

    mbps: MeasurementStats
    payload_bytes: int
    reports: List[ExecutionReport] = field(default_factory=list)
    observations: List[Instrumentation] = field(default_factory=list)

    @property
    def mean_mbps(self) -> float:
        return self.mbps.mean

    def flow_latencies(self, stream_id: Optional[str] = None) -> List[float]:
        """End-to-end flow latencies pooled over the observed repeats.

        Empty unless the measurement ran with an ``obs_factory`` whose
        instrumentation recorded flows; see
        :meth:`repro.obs.flow.FlowRecorder.latencies`.
        """
        return [
            latency
            for obs in self.observations
            for latency in obs.flows.latencies(stream_id)
        ]

    def __str__(self) -> str:
        return f"{self.mbps.mean:.1f} ± {self.mbps.std:.1f} Mbps"


@dataclass(frozen=True)
class PointSpec:
    """One sweep point of a multi-point measurement.

    Attributes:
        key: Hashable identity of the point (e.g. ``("fig6", 200, True)``);
            the result table of :func:`measure_points` is keyed by it.
        query: The SCSQL select query to run.
        payload_bytes: Payload volume the query streams.
        settings: Engine settings, or None for defaults.
        selector: Optional node-selector name (ablation path); see
            :data:`repro.core.parallel.SELECTORS`.
    """

    key: Any
    query: str
    payload_bytes: int
    settings: Optional[ExecutionSettings] = None
    selector: Optional[str] = None


def _verify_sweep_plan(plan, spec: "PointSpec", config: EnvironmentConfig) -> None:
    """Fail a sweep fast on a malformed point.

    Static verification of the compiled plan against the sweep's topology
    catches over-subscription, nonexistent nodes, exhausted allocation
    sequences, etc. *before* any worker spins up — one
    :class:`~repro.util.errors.PlanVerificationError` naming the point
    instead of a mid-sweep crash.  Warnings (capacity bounds) pass; many
    legitimate sweep points are deliberately link-bound.
    """
    from repro.analysis.verifier import verify_plan
    from repro.core.parallel import SELECTORS

    selector = SELECTORS[spec.selector]() if spec.selector else None
    report = verify_plan(plan, config=config, label=str(spec.key), selector=selector)
    report.raise_if_failed()


def _result_from_outcomes(
    outcomes: Sequence[TaskOutcome],
    payload_bytes: int,
    observations: Optional[List[Instrumentation]] = None,
) -> BandwidthResult:
    """Assemble one point's :class:`BandwidthResult` from its repeats.

    ``observations`` carries the live per-repeat instrumentation of an
    in-process ``obs_factory`` run; without it each outcome's shipped flow
    records are rebuilt into an observation (the worker path).
    """
    samples: List[float] = []
    reports: List[ExecutionReport] = []
    rebuilt: List[Instrumentation] = []
    for k, outcome in enumerate(outcomes):
        report = outcome.report
        reports.append(report)
        if report.duration <= 0.0:
            raise MeasurementError(
                f"repeat {k} finished in non-positive simulated time "
                f"({report.duration!r}); bandwidth is undefined"
            )
        samples.append(payload_bytes * 8.0 / report.duration / MEGA)
        if observations is None:
            obs = outcome.observation()
            if obs is not None:
                rebuilt.append(obs)
    return BandwidthResult(
        mbps=summarize(samples),
        payload_bytes=payload_bytes,
        reports=reports,
        observations=rebuilt if observations is None else observations,
    )


def measure_points(
    specs: Sequence[PointSpec],
    repeats: int = DEFAULT_REPEATS,
    env_config: Optional[EnvironmentConfig] = None,
    base_seed: int = 0,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
    executor: Optional[SweepExecutor] = None,
) -> Dict[Any, BandwidthResult]:
    """Measure several sweep points, fanning every (point, repeat) task out.

    All ``len(specs) * repeats`` simulations are independent, so they are
    submitted to one :class:`~repro.core.parallel.SweepExecutor` together
    — with ``jobs > 1`` the whole figure sweep parallelizes, not just the
    repeats of one point.  Results come back keyed by ``spec.key``, each
    assembled from its repeats in seed order regardless of completion
    order, so the table is bit-identical to a serial sweep.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    config = env_config or EnvironmentConfig()
    # Compile each point once; its (picklable) plan is shared by all the
    # point's repeat tasks instead of being recompiled per repeat/worker.
    plans = {spec.key: compile_plan(spec.query, settings=spec.settings) for spec in specs}
    for spec in specs:
        _verify_sweep_plan(plans[spec.key], spec, config)
    tasks = [
        SweepTask(
            point_key=spec.key,
            seed=base_seed + k,
            query=spec.query,
            payload_bytes=spec.payload_bytes,
            settings=spec.settings,
            env_config=config,
            observe=observe,
            selector=spec.selector,
            plan=plans[spec.key],
        )
        for spec in specs
        for k in range(repeats)
    ]
    outcomes = (executor or SweepExecutor(jobs)).run(tasks)
    results: Dict[Any, BandwidthResult] = {}
    for index, spec in enumerate(specs):
        point_outcomes = outcomes[index * repeats:(index + 1) * repeats]
        results[spec.key] = _result_from_outcomes(point_outcomes, spec.payload_bytes)
    return results


def measure_query_bandwidth(
    query: str,
    payload_bytes: int,
    settings: Optional[ExecutionSettings] = None,
    repeats: int = DEFAULT_REPEATS,
    env_config: Optional[EnvironmentConfig] = None,
    base_seed: int = 0,
    prepare: Optional[Callable[[SCSQSession], None]] = None,
    obs_factory: Optional[Callable[[int], Instrumentation]] = None,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
    executor: Optional[SweepExecutor] = None,
) -> BandwidthResult:
    """Measure the streaming bandwidth of one SCSQL query.

    Args:
        query: The SCSQL select query to run.
        payload_bytes: Total payload the query streams over the measured
            path (e.g. n * count * array_bytes); bandwidth is this volume
            divided by the simulated execution time.
        settings: Engine settings (buffer size, buffering mode).
        repeats: Number of independent runs (paper: five).
        env_config: Environment shape/cost model; seeds are varied per run.
        base_seed: Seed of the first repeat; repeat k uses base_seed + k.
        prepare: Optional callback run against each fresh session before
            the query (e.g. defining functions or registering sources).
            Forces the in-process path (callbacks don't cross processes).
        obs_factory: Optional factory called with the repeat index; its
            :class:`~repro.obs.Instrumentation` is installed on that
            repeat's fresh environment and attached to the result, so the
            run's internal mechanism (resource contention, queue depths)
            is inspectable per repeat.  Forces the in-process path; for
            parallel runs that only need flow latencies, pass
            ``observe="flows"`` instead.
        jobs: Fan the repeats over this many worker processes.  ``jobs=1``
            runs in-process; results are bit-identical either way.
        observe: Declarative instrumentation spec for the worker path
            (:data:`~repro.core.parallel.OBSERVE_NONE` or
            :data:`~repro.core.parallel.OBSERVE_FLOWS`).
        executor: Reuse an existing :class:`~repro.core.parallel.SweepExecutor`
            instead of creating one from ``jobs``.

    Returns:
        The summarized result, with per-run reports attached.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    template_config = env_config or EnvironmentConfig()
    if prepare is not None or obs_factory is not None:
        # In-process loop: arbitrary callables cannot be shipped to spawn
        # workers.  Each repeat still runs through the one worker entry
        # point (run_sweep_task), just inline, with the live obs handed in.
        # ``prepare`` forces text compilation (it may define functions the
        # query needs); otherwise the query compiles once up front.
        plan = compile_plan(query, settings=settings) if prepare is None else None
        if plan is not None:
            _verify_sweep_plan(
                plan,
                PointSpec(key="point", query=query, payload_bytes=payload_bytes),
                template_config,
            )
        observations: List[Instrumentation] = []
        outcomes: List[TaskOutcome] = []
        for k in range(repeats):
            obs = obs_factory(k) if obs_factory is not None else None
            if obs is not None:
                observations.append(obs)
            task = SweepTask(
                point_key="point",
                seed=base_seed + k,
                query=query,
                payload_bytes=payload_bytes,
                settings=settings,
                env_config=template_config,
                plan=plan,
            )
            outcomes.append(run_sweep_task(task, prepare=prepare, obs=obs))
        return _result_from_outcomes(
            outcomes, payload_bytes, observations=observations
        )
    spec = PointSpec(key="point", query=query, payload_bytes=payload_bytes, settings=settings)
    results = measure_points(
        [spec], repeats=repeats, env_config=template_config, base_seed=base_seed,
        jobs=jobs, observe=observe, executor=executor,
    )
    return results["point"]
