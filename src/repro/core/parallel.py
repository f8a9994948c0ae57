"""Parallel execution of independent sweep points.

Every figure in the paper is a sweep of *independent* simulations — each
(sweep-point, repeat) pair runs its own query on its own freshly seeded
environment and shares nothing with any other run.  :class:`SweepExecutor`
exploits that embarrassing parallelism by fanning :class:`SweepTask`
payloads over a ``spawn``-based :class:`~concurrent.futures.ProcessPoolExecutor`
and merging the outcomes **in task order**, independent of worker completion
order, so parallel results are bit-identical to a serial run.

Design constraints:

* Tasks are frozen, picklable descriptions keyed by ``(point_key, seed)``;
  the worker re-derives everything else (environment, session, selector)
  from them, and both the serial and parallel paths execute the *same*
  module-level :func:`run_sweep_task`, which is what makes jobs=1 and
  jobs=N provably equivalent.
* Observation is a level on the task (:data:`~repro.obs.instrument.OBSERVE_LEVELS`:
  ``none | metrics | flows | trace``), never a callable.  A ``flows`` run
  ships its picklable :class:`~repro.obs.flow.FlowRecord` list and the parent
  rebuilds a hub around it; ``metrics`` and ``trace`` are read back through
  the live hub, so :meth:`SweepExecutor.run` keeps them in-process.
* Workers cache one :class:`~repro.hardware.environment.EnvironmentTemplate`
  per topology (:func:`~repro.hardware.environment.shared_template`), so a
  worker that runs many repeats of the same sweep pays the topology build
  once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.coordinator.allocation import (
    KnowledgeBasedSelector,
    NaiveSelector,
    NodeSelector,
)
from repro.coordinator.deployer import Deployer, ExecutionReport, SelectorPlacement
from repro.core.multiquery import MultiQueryResult, MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.flow import FlowRecord, FlowRecorder
from repro.obs.instrument import (
    LIVE_HUB_LEVELS,
    OBSERVE_NONE,
    Instrumentation,
    instrumentation_for,
)
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import DeploymentPlan, compile_plan
from repro.util.errors import MeasurementError
from repro.util.record import Frozen, Record

#: Node selectors a task may name (ablation sweeps); values are the selector
#: classes, instantiated fresh inside the worker.
SELECTORS: Dict[str, Type[NodeSelector]] = {
    "naive": NaiveSelector,
    "knowledge": KnowledgeBasedSelector,
}

#: A point's query: one SCSQL text or a session's ``(label, text)`` pairs; then compiled.
Queries = Union[str, Tuple[Tuple[str, str], ...]]
Plans = Union[DeploymentPlan, Tuple[Tuple[str, DeploymentPlan], ...]]


def compile_queries(query: Queries, settings: Optional[ExecutionSettings]) -> Plans:
    """Compile a point's query, or each query of a session point."""
    if isinstance(query, str):
        return compile_plan(query, settings=settings)
    return tuple((label, compile_plan(text, settings=settings)) for label, text in query)


class SweepTask(Frozen):
    """One (sweep-point, repeat) simulation, as a spawn-safe payload.

    Attributes:
        point_key: Hashable identity of the sweep point; outcomes of the
            same point are grouped under this key by the drivers.
        seed: Jitter seed of this repeat (overrides ``env_config.seed``).
        query: The SCSQL query text to execute, or ``(label, text)`` per
            query of a session run on one environment.
        payload_bytes: Payload volume each query streams (for bandwidth).
        settings: Engine settings, or None for defaults.
        env_config: Environment shape/cost model (seed field ignored).
        observe: One of :data:`~repro.obs.instrument.OBSERVE_LEVELS`.
        selector: Optional :data:`SELECTORS` name; when set the query is
            placed by that node-selection algorithm instead of the default
            naive policy (the ablation path).
        plan: Optional pre-compiled ``query`` (:func:`compile_queries`).  A
            sweep compiles each point once and shares the (picklable) plan
            across all its repeat tasks; without one the worker compiles.
    """

    point_key: Any
    seed: int
    query: Queries
    payload_bytes: int
    settings: Optional[ExecutionSettings]
    env_config: EnvironmentConfig
    observe: str
    selector: Optional[str]
    plan: Optional[Plans]
    __slots__ = ("point_key", "seed", "query", "payload_bytes", "settings", "env_config", "observe",
                 "selector", "plan")

    def __init__(self, point_key: Any, seed: int, query: Queries, payload_bytes: int,
                 settings: Optional[ExecutionSettings] = None,
                 env_config: EnvironmentConfig = EnvironmentConfig(), observe: str = OBSERVE_NONE,
                 selector: Optional[str] = None, plan: Optional[Plans] = None) -> None:
        self._set_fields(point_key, seed, query, payload_bytes, settings, env_config, observe,
                         selector, plan)


class TaskOutcome(Record):
    """What one :class:`SweepTask` produced.

    Picklable: the live hub holds its simulator and stays behind in the
    process that ran the task; everything else crosses.
    """

    __slots__ = ("point_key", "seed", "report", "flow_records", "observed", "_hub")
    _uncompared = ("_hub",)

    def __init__(self, point_key: Any, seed: int, report: Union[ExecutionReport, MultiQueryResult],
                 flow_records: Optional[List[FlowRecord]] = None, observed: bool = False,
                 _hub: Optional[Instrumentation] = None) -> None:
        self.point_key = point_key
        self.seed = seed
        self.report = report
        self.flow_records = [] if flow_records is None else flow_records
        self.observed = observed
        self._hub = _hub

    def observation(self) -> Optional[Instrumentation]:
        """The repeat's hub, or ``None`` for an unobserved one.

        In the process that ran the task this is the live hub; across a
        spawn boundary it is rebuilt around the shipped flow records, so
        latencies, percentiles and bottleneck profiles read the same (its
        registry and timeline are empty — levels read through those never
        leave the process, see :meth:`SweepExecutor.run`).
        """
        if self._hub is None and self.observed:
            self._hub = Instrumentation(
                tracer=NULL_TRACER, flows=FlowRecorder(completed=self.flow_records)
            )
        return self._hub

    def __getstate__(self) -> Tuple[Any, ...]:
        return (*super().__getstate__()[:-1], None)  # the hub stays behind


def run_sweep_task(task: SweepTask) -> TaskOutcome:
    """Execute one task in the current process.

    This is the single execution path for every measurement:
    :class:`SweepExecutor` calls it inline for ``jobs=1`` and ships it to
    pool workers otherwise.  A session task runs its queries concurrently
    on the one environment and reports their
    :class:`~repro.core.multiquery.MultiQueryResult`.

    Raises:
        MeasurementError: If the query finishes in non-positive simulated
            time (its bandwidth would be undefined).
    """
    config = task.env_config.with_seed(task.seed)
    obs = instrumentation_for(task.observe)
    env = shared_template(config).fork(seed=config.seed, obs=obs)
    plan = task.plan or compile_queries(task.query, task.settings)
    if isinstance(plan, tuple):
        session = MultiQuerySession(env, settings=task.settings)
        for label, each in plan:
            session.submit(each, task.payload_bytes, label=label)
        report = session.run()
        deployer = session.deployer
        duration = min(outcome.report.duration for outcome in report.outcomes)
    else:
        strategy = (
            SelectorPlacement(SELECTORS[task.selector]())
            if task.selector is not None
            else None
        )
        deployer = Deployer(env)
        report = deployer.run(plan, strategy=strategy, settings=task.settings)
        duration = report.duration
    if duration <= 0.0:
        raise MeasurementError(
            f"task {task.point_key!r} (seed {task.seed}) finished in "
            f"non-positive simulated time ({duration!r}); "
            f"bandwidth is undefined"
        )
    outcome = TaskOutcome(
        point_key=task.point_key,
        seed=task.seed,
        report=report,
        flow_records=list(obs.flows.completed) if obs is not None else [],
        observed=obs is not None,
        _hub=obs,
    )
    # The report and the flow records are taken: tearing down now cannot
    # move a measured number, and it is what the leak sanitizer audits.
    deployer.teardown()
    return outcome


class SweepExecutor:
    """Runs independent sweep tasks, in-process or over worker processes.

    Args:
        jobs: Maximum worker processes.  ``jobs=1`` (the default) executes
            every task inline in submission order — no pool, no pickling.
    """

    def __init__(self, jobs: int = 1):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    def run(self, tasks: Sequence[SweepTask]) -> List[TaskOutcome]:
        """Execute ``tasks``; outcomes are returned in task order.

        The merge is deterministic regardless of worker completion order:
        outcome ``i`` is always the result of ``tasks[i]``.  Tasks observed
        at a level read back through the live hub
        (:data:`~repro.obs.instrument.LIVE_HUB_LEVELS`) run inline whatever
        ``jobs`` says — the one place that rule lives.
        """
        if any(task.observe in LIVE_HUB_LEVELS for task in tasks):
            return [run_sweep_task(task) for task in tasks]
        return self.map(run_sweep_task, tasks)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """Run a module-level picklable ``fn`` over ``tasks``, in task order.

        The generic fan-out behind :meth:`run`, reused by other
        embarrassingly parallel harnesses (the fault-injection benchmark's
        :func:`repro.bench.faults.run_fault_task` repeats).  The contract
        is the same: both the ``jobs=1`` and the ``jobs=N`` path call the
        *same* function on the *same* payloads and merge results in task
        order, so a deterministic ``fn`` yields bit-identical results
        either way — and is audited either way: a worker runs ``fn`` inside
        the submitter's :func:`~repro.analysis.sanitize.sanitizer` /
        :func:`~repro.analysis.sanitize.chaos` scopes and the submitter's
        scope absorbs what it audited.
        """
        from repro.analysis import sanitize

        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        # ``spawn`` workers re-import the package from a clean interpreter
        # (inheriting sys.path), so tasks never depend on forked state —
        # which also means the module-global sanitizer scope and chaos
        # override do not reach them: the call is shipped inside
        # ``run_scoped``, which re-enters whichever is active here.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        scope, seed = sanitize.current(), sanitize.chaos_seed()
        label = scope.report.label if scope is not None else None
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(tasks))
        outcomes: List[Any] = []
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [
                pool.submit(sanitize.run_scoped, fn, task, label, seed)
                for task in tasks
            ]
            for future in futures:
                outcome, audited, findings = future.result()
                outcomes.append(outcome)
                if scope is not None:
                    scope.absorb(audited, findings)
        return outcomes

    def __repr__(self) -> str:
        return f"<SweepExecutor jobs={self.jobs}>"
