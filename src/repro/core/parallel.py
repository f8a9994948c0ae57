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
* Observability cannot ship arbitrary ``obs_factory`` callables across a
  process boundary; instead a task carries a declarative ``observe`` spec
  (:data:`OBSERVE_NONE` or :data:`OBSERVE_FLOWS`) and the worker returns
  the picklable :class:`~repro.obs.flow.FlowRecord` list, which the parent
  wraps back into an :class:`~repro.obs.Instrumentation`.  Callers that
  need richer in-process instrumentation (tracers, custom hooks) keep the
  serial ``obs_factory`` path in :mod:`repro.core.measurement`.
* Workers cache one :class:`~repro.hardware.environment.EnvironmentTemplate`
  per topology (:func:`~repro.hardware.environment.shared_template`), so a
  worker that runs many repeats of the same sweep pays the topology build
  once.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Type

from repro.coordinator.allocation import (
    KnowledgeBasedSelector,
    NaiveSelector,
    NodeSelector,
)
from repro.coordinator.deployer import Deployer, ExecutionReport, SelectorPlacement
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.flow import FlowRecord, FlowRecorder
from repro.obs.instrument import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import DeploymentPlan, compile_plan
from repro.scsql.session import SCSQSession
from repro.util.errors import MeasurementError

#: No instrumentation: the run pays one attribute check per hook site.
OBSERVE_NONE = "none"
#: Flows + metrics instrumentation (no timeline tracer): what the bench and
#: the latency-percentile reports need, and cheap enough for full sweeps.
OBSERVE_FLOWS = "flows"

#: Node selectors a task may name (ablation sweeps); values are the selector
#: classes, instantiated fresh inside the worker.
SELECTORS: Dict[str, Type[NodeSelector]] = {
    "naive": NaiveSelector,
    "knowledge": KnowledgeBasedSelector,
}


@dataclass(frozen=True)
class SweepTask:
    """One (sweep-point, repeat) simulation, as a spawn-safe payload.

    Attributes:
        point_key: Hashable identity of the sweep point; outcomes of the
            same point are grouped under this key by the drivers.
        seed: Jitter seed of this repeat (overrides ``env_config.seed``).
        query: The SCSQL query text to execute.
        payload_bytes: Payload volume the query streams (for bandwidth).
        settings: Engine settings, or None for defaults.
        env_config: Environment shape/cost model (seed field ignored).
        observe: :data:`OBSERVE_NONE` or :data:`OBSERVE_FLOWS`.
        selector: Optional :data:`SELECTORS` name; when set the query is
            placed by that node-selection algorithm instead of the default
            naive policy (the ablation path).
        plan: Optional pre-compiled :class:`~repro.scsql.plan.DeploymentPlan`
            for ``query``.  A sweep compiles each point once and shares the
            (picklable) plan across all its repeat tasks; without one the
            worker compiles from ``query`` itself.
    """

    point_key: Any
    seed: int
    query: str
    payload_bytes: int
    settings: Optional[ExecutionSettings] = None
    env_config: EnvironmentConfig = EnvironmentConfig()
    observe: str = OBSERVE_NONE
    selector: Optional[str] = None
    plan: Optional[DeploymentPlan] = None


@dataclass
class TaskOutcome:
    """What one :class:`SweepTask` produced (picklable)."""

    point_key: Any
    seed: int
    report: ExecutionReport
    flow_records: List[FlowRecord] = field(default_factory=list)
    observed: bool = False

    def observation(self) -> Optional[Instrumentation]:
        """Rebuild the repeat's instrumentation from the shipped records.

        The reconstructed hub carries the completed flows (so latency
        percentiles and :meth:`~repro.obs.flow.FlowRecorder.latencies` work
        exactly as in-process) but no timeline tracer.
        """
        if not self.observed:
            return None
        flows = FlowRecorder()
        flows._completed = list(self.flow_records)
        return Instrumentation(tracer=NULL_TRACER, flows=flows)


def _make_obs(observe: str) -> Optional[Instrumentation]:
    if observe == OBSERVE_NONE:
        return None
    if observe == OBSERVE_FLOWS:
        return Instrumentation(tracer=NULL_TRACER)
    raise ValueError(f"unknown observe spec {observe!r}")


def run_sweep_task(
    task: SweepTask,
    prepare=None,
    obs: Optional[Instrumentation] = None,
) -> TaskOutcome:
    """Execute one task in the current process.

    This is the single execution path for every measurement: serial and
    parallel sweeps (:class:`SweepExecutor` calls it inline for ``jobs=1``
    and ships it to pool workers otherwise) and the in-process
    ``prepare``/``obs_factory`` loop of
    :func:`~repro.core.measurement.measure_query_bandwidth`.

    ``prepare`` and ``obs`` are in-process-only conveniences (callables and
    live instrumentation hubs do not cross the spawn boundary): ``obs``
    overrides the declarative ``task.observe`` spec, and ``prepare`` runs
    against a fresh session before the query — which forces the text
    compilation path, since the callback may define functions or sources
    the query needs *before* it can compile.

    Raises:
        MeasurementError: If the query finishes in non-positive simulated
            time (its bandwidth would be undefined).
    """
    config = task.env_config.with_seed(task.seed)
    if obs is None:
        obs = _make_obs(task.observe)
    env = shared_template(config).fork(seed=config.seed, obs=obs)
    if prepare is not None:
        session = SCSQSession(env, task.settings)
        prepare(session)
        report = session.execute(task.query, task.settings)
    else:
        plan = task.plan or compile_plan(task.query, settings=task.settings)
        strategy = (
            SelectorPlacement(SELECTORS[task.selector]())
            if task.selector is not None
            else None
        )
        report = Deployer(env).run(plan, strategy=strategy, settings=task.settings)
    assert report is not None  # select queries always report
    if report.duration <= 0.0:
        raise MeasurementError(
            f"task {task.point_key!r} (seed {task.seed}) finished in "
            f"non-positive simulated time ({report.duration!r}); "
            f"bandwidth is undefined"
        )
    flow_records = list(obs.flows.completed) if obs is not None else []
    return TaskOutcome(
        point_key=task.point_key,
        seed=task.seed,
        report=report,
        flow_records=flow_records,
        observed=obs is not None,
    )


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
        outcome ``i`` is always the result of ``tasks[i]``.
        """
        return self.map(run_sweep_task, tasks)

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """Run a module-level picklable ``fn`` over ``tasks``, in task order.

        The generic fan-out behind :meth:`run`, reused by other
        embarrassingly parallel harnesses (the fault-injection benchmark's
        :func:`repro.bench.faults.run_fault_task` repeats).  The contract
        is the same: both the ``jobs=1`` and the ``jobs=N`` path call the
        *same* function on the *same* payloads and merge results in task
        order, so a deterministic ``fn`` yields bit-identical results
        either way.
        """
        tasks = list(tasks)
        if self.jobs == 1 or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        # ``spawn`` workers re-import the package from a clean interpreter
        # (inheriting sys.path), so tasks never depend on forked state.
        context = multiprocessing.get_context("spawn")
        workers = min(self.jobs, len(tasks))
        outcomes: List[Optional[Any]] = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(fn, task) for task in tasks]
            for index, future in enumerate(futures):
                outcomes[index] = future.result()
        return outcomes

    def __repr__(self) -> str:
        return f"<SweepExecutor jobs={self.jobs}>"
