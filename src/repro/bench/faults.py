"""Deterministic fault injection for the benchmark harness.

Mid-run failures over concurrent numbered query streams: a seed-driven
:class:`FaultSchedule` kills a BlueGene compute node (or a whole pset with
its I/O node) or degrades a torus link / the Ethernet switch uplink at a
chosen simulated time.  :func:`run_faulted_session` is a
:class:`~repro.core.multiquery.MultiQuerySession` plus a schedule: it
submits every stream, drives the shared simulator up to each fault
instant, applies the failure, and exercises the *existing* recovery
machinery end to end:

* :meth:`~repro.coordinator.deployer.Deployment.teardown` stops the
  victim's running processes and returns their node slots;
* the hardware effect lands (``Node.fail()``,
  :meth:`~repro.net.torus.TorusNetwork.degrade_link`,
  :meth:`~repro.net.ethernet.EthernetFabric.degrade_uplink`);
* the victim is **replanned** — placed afresh by the deployer and
  redeployed as the session's next generation of its label
  (:meth:`~repro.core.multiquery.MultiQuerySession.replace`, tag ``r``:
  a ``<label>+rN/`` prefix) against the live environment, where failed
  nodes are unavailable; a replan that cannot be placed raises the
  deployer's typed error with its coded diagnostics.

Recovery time and the bandwidth dip are read back from the
:class:`~repro.obs.flow.FlowRecorder`: recovery is the first delivery of a
replacement-stream flow after the fault; the dip compares the delivered
byte rate after the fault against the rate before it.

Everything is a pure function of ``(seed, streams, scenario, scale)``:
:class:`FaultTask` is a frozen picklable payload and
:func:`run_fault_task` the module-level worker, so
:meth:`repro.core.parallel.SweepExecutor.map` fans repeats out over
processes with bit-identical results to a serial run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.query_stream import (
    DEFAULT_SCALE,
    BenchQuery,
    StreamScale,
    build_query,
    query_order,
    registered,
)
from repro.coordinator.deployer import Deployment, ExecutionReport
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import (
    BLUEGENE,
    Environment,
    EnvironmentConfig,
    shared_template,
)
from repro.hardware.node import NodeKind
from repro.obs.flow import FlowRecord
from repro.obs.instrument import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError
from repro.util.record import Frozen, Record
from repro.util.units import MEGA

#: Fault scenarios the schedule can inject.
SCENARIOS: Tuple[str, ...] = (
    "kill-node",
    "kill-io-node",
    "degrade-link",
    "degrade-uplink",
)

#: Repair events: undo an earlier degradation (nothing to replan).
RESTORE_SCENARIOS: Tuple[str, ...] = ("restore-uplink",)

#: Benchmark-facing composite scenarios built from several events.
COMPOSITE_SCENARIOS: Tuple[str, ...] = (
    "correlated",
    "flapping",
)

#: Default slowdown factor of the degradation scenarios.
DEFAULT_DEGRADE_FACTOR = 8.0

#: Degrade/restore cycles of the transient-flapping composite.
FLAPPING_CYCLES = 3

#: Where a benchmark fault strikes, as a fraction of the healthy makespan.
FAULT_AT_FRACTION = 0.5


class FaultEvent(Frozen):
    """One scheduled failure.

    Attributes:
        time: Simulated second at which the fault strikes.
        scenario: A :data:`SCENARIOS` member.
        target: Optional explicit hardware target — a compute-node index
            for ``kill-node``, a pset id for ``kill-io-node``.  ``None``
            (the default) lets the schedule's seeded RNG pick among the
            nodes that actually host running processes at fault time.
        factor: Slowdown multiplier of the degradation scenarios.
        replan: Whether victim streams are torn down and redeployed.
            ``False`` models a *transient* fault the session rides out in
            place (the flapping composite); :data:`RESTORE_SCENARIOS`
            events never replan regardless.
    """

    time: float
    scenario: str
    target: Optional[int]
    factor: float
    replan: bool
    __slots__ = ("time", "scenario", "target", "factor", "replan")

    def __init__(self, time: float, scenario: str, target: Optional[int] = None,
                 factor: float = DEFAULT_DEGRADE_FACTOR, replan: bool = True) -> None:
        self._set_fields(time, scenario, target, factor, replan)
        if self.scenario not in SCENARIOS + RESTORE_SCENARIOS:
            raise QueryExecutionError(
                f"unknown fault scenario {self.scenario!r}; "
                f"expected one of {SCENARIOS + RESTORE_SCENARIOS}"
            )
        if self.time < 0.0:
            raise QueryExecutionError(
                f"fault time must be >= 0, got {self.time}"
            )
        if self.factor < 1.0:
            raise QueryExecutionError(
                f"degrade factor must be >= 1, got {self.factor}"
            )


class FaultSchedule(Frozen):
    """A deterministic, seed-driven sequence of failures.

    The seed drives *victim selection* (which occupied node dies, which
    stream gets replanned) — the schedule itself is explicit data, so the
    same ``(events, seed)`` pair injects bit-identical failures in any
    process, which is what lets repeats run under ``--jobs N``.
    """

    events: Tuple[FaultEvent, ...]
    seed: int
    __slots__ = ("events", "seed")

    def __init__(self, events: Tuple[FaultEvent, ...] = (), seed: int = 0) -> None:
        self._set_fields(events, seed)
        times = [event.time for event in self.events]
        if times != sorted(times):
            raise QueryExecutionError("fault events must be time-ordered")

    def with_seed(self, seed: int) -> "FaultSchedule":
        """This schedule with only the victim-selection seed replaced."""
        return self.replace(seed=seed)

    @staticmethod
    def single(
        scenario: str,
        at_time: float,
        seed: int = 0,
        target: Optional[int] = None,
    ) -> "FaultSchedule":
        """The common one-failure schedule."""
        return FaultSchedule(
            events=(FaultEvent(at_time, scenario, target=target),),
            seed=seed,
        )

    @staticmethod
    def correlated(
        at_time: float,
        seed: int = 0,
        factor: float = DEFAULT_DEGRADE_FACTOR,
    ) -> "FaultSchedule":
        """A correlated multi-fault: node death *and* uplink degradation.

        Both strike in the same instant — the realistic cascade where a
        rack event takes a compute node down and saturates the shared
        ingress at once.  The victim must replan around the dead node
        while every stream rides the slowed uplink.
        """
        return FaultSchedule(
            events=(
                FaultEvent(at_time, "kill-node"),
                FaultEvent(at_time, "degrade-uplink", factor=factor),
            ),
            seed=seed,
        )

    @staticmethod
    def flapping(
        at_time: float,
        period: float,
        cycles: int = FLAPPING_CYCLES,
        seed: int = 0,
    ) -> "FaultSchedule":
        """A transiently flapping uplink: degrade/restore every half period.

        No event replans — the streams ride each dip out in place, which
        is exactly what the health detector's hysteresis should absorb
        (``degraded`` on each dip, ``recovered`` after each restore,
        never a spurious replacement).
        """
        if period <= 0.0:
            raise QueryExecutionError(
                f"flapping period must be > 0, got {period}"
            )
        if cycles < 1:
            raise QueryExecutionError(
                f"flapping needs at least one cycle, got {cycles}"
            )
        events: List[FaultEvent] = []
        for cycle in range(cycles):
            start = at_time + cycle * period
            events.append(FaultEvent(
                start, "degrade-uplink", replan=False,
            ))
            events.append(FaultEvent(
                start + period / 2.0, "restore-uplink", replan=False,
            ))
        return FaultSchedule(events=tuple(events), seed=seed)


class FaultedRunResult(Record):
    """Everything one (possibly faulted) concurrent run produced."""

    __slots__ = ("reports", "completions", "makespan", "fault_time", "failed_nodes", "degraded",
                 "restored", "replacements", "flow_records")

    def __init__(self, reports: Dict[str, ExecutionReport], completions: Dict[str, float],
                 makespan: float, fault_time: Optional[float],
                 failed_nodes: Optional[List[str]] = None, degraded: Optional[List[str]] = None,
                 restored: Optional[List[str]] = None, replacements: Optional[List[str]] = None,
                 flow_records: Optional[List[FlowRecord]] = None) -> None:
        #: Stream label -> execution report of the stream's *final* deployment
        #  (the replacement, for streams that were killed and replanned).
        self.reports = reports
        #: Stream label -> simulated second its final deployment delivered the
        #  last result (streams all start at time 0).
        self.completions = completions
        #: Simulated second the last stream completed.
        self.makespan = makespan
        #: When the first fault struck (None for a healthy run).
        self.fault_time = fault_time
        #: Node ids marked failed by the schedule.
        self.failed_nodes = [] if failed_nodes is None else failed_nodes
        #: Human-readable descriptions of degraded links/uplinks.
        self.degraded = [] if degraded is None else degraded
        #: Human-readable descriptions of repaired links/uplinks.
        self.restored = [] if restored is None else restored
        #: RP prefixes of the replacement deployments, e.g. ``"s0+r1/"``.
        self.replacements = [] if replacements is None else replacements
        #: Completed flows of the run (empty without flow instrumentation).
        self.flow_records = [] if flow_records is None else flow_records

    @property
    def recovery_s(self) -> float:
        """Seconds from the fault to the first replacement-flow delivery.

        Falls back to makespan minus fault time when no replacement flow
        completed (e.g. flow instrumentation off), and to 0.0 for healthy
        runs or faults that found nothing left to kill.
        """
        if self.fault_time is None:
            return 0.0
        if not self.replacements:
            return 0.0
        recovered = [
            record.delivered
            for record in self.flow_records
            if record.delivered is not None and "+r" in record.stream_id
        ]
        if not recovered:
            return self.makespan - self.fault_time
        return min(recovered) - self.fault_time


# ----------------------------------------------------------------------
# The injection loop
# ----------------------------------------------------------------------
def _occupied_bg_nodes(session: MultiQuerySession) -> Dict[int, List[str]]:
    """Compute-node index -> labels with a live RP there, deterministic."""
    occupied: Dict[int, List[str]] = {}
    for label in session.labels():
        deployment = session.deployment(label)
        if not deployment.running:
            continue
        for rp in deployment.rps.values():
            node = rp.node
            if node.cluster == BLUEGENE and node.kind is NodeKind.BG_COMPUTE:
                holders = occupied.setdefault(node.index, [])
                if label not in holders:
                    holders.append(label)
    return occupied


def run_faulted_session(
    env: Environment,
    queries: Sequence[BenchQuery],
    schedule: FaultSchedule = FaultSchedule(),
) -> FaultedRunResult:
    """Run the queries concurrently on ``env``, injecting the schedule.

    The queries are submitted to one
    :class:`~repro.core.multiquery.MultiQuerySession` under the labels
    ``s<stream_id>`` and start at simulated time 0 (external sources must
    already be in scope — use :func:`repro.bench.query_stream.registered`).
    The simulator then runs up to each fault instant in turn; the fault
    damages the hardware, and each victim is torn down and redeployed by
    naive next-available selection as the session's next ``r`` generation.
    An empty schedule is simply ``session.run()``.

    The harness owns its session and tears it down on every exit path: the
    schedule yields exact results or the typed error of a replan that could
    not deploy, and either way ``env`` comes back with every node and
    stream released.
    """
    rng = random.Random(f"fault:{schedule.seed}")
    session = MultiQuerySession(env)

    def replan(deployment: Deployment, plan: object, prefix: str) -> Deployment:
        deployment.teardown()
        placed = session.deployer.place(plan)
        return session.deployer.deploy(placed, rp_prefix=prefix)

    failed_nodes: List[str] = []
    degraded: List[str] = []
    restored: List[str] = []
    replacements: List[str] = []
    try:
        for bench_query in queries:
            session.submit(
                compile_plan(bench_query.query),
                payload_bytes=bench_query.payload_bytes,
                label=f"s{bench_query.stream_id}",
            )
        session.start()
        for event in schedule.events:
            env.sim.run(until=event.time)
            victims = _apply_event(
                env, event, session, rng, failed_nodes, degraded, restored
            )
            if not event.replan:
                continue  # a transient: the streams ride it out in place
            for label in victims:
                replacements.append(session.replace(label, "r", replan).rp_prefix)
        env.sim.run()
        reports = {
            outcome.label: outcome.report for outcome in session.finish().outcomes
        }
        completions: Dict[str, float] = {}
        for label, report in reports.items():
            start_time = session.deployment(label).start_time
            assert start_time is not None
            completions[label] = start_time + report.duration
        return FaultedRunResult(
            reports=reports,
            completions=completions,
            makespan=max(completions.values()),
            fault_time=schedule.events[0].time if schedule.events else None,
            failed_nodes=failed_nodes,
            degraded=degraded,
            restored=restored,
            replacements=replacements,
            flow_records=list(env.obs.flows.completed),
        )
    finally:
        session.teardown()


def _notify_failure(env: Environment, subject: str, scope: str,
                    detail: str = "") -> None:
    """Forward a hardware failure to the live health detector, if any."""
    live = env.obs.live
    if live.enabled:
        live.on_failure(subject, scope, detail)


def _apply_event(
    env: Environment,
    event: FaultEvent,
    session: MultiQuerySession,
    rng: random.Random,
    failed_nodes: List[str],
    degraded: List[str],
    restored: List[str],
) -> List[str]:
    """Damage (or repair) the hardware; return the labels to replan."""
    if event.scenario == "restore-uplink":
        env.fabric.restore_uplink()
        restored.append("eth uplink restored")
        return []

    occupied = _occupied_bg_nodes(session)
    if event.scenario == "kill-node":
        candidates = sorted(occupied)
        if event.target is not None:
            index = event.target
        elif candidates:
            index = rng.choice(candidates)
        else:
            return []  # nothing left running: the fault finds no victim
        node = env.bluegene.node(index)
        node.fail()
        failed_nodes.append(node.node_id)
        _notify_failure(env, node.node_id, "node", "killed by fault injection")
        return list(occupied.get(index, []))

    if event.scenario == "kill-io-node":
        if event.target is not None:
            pset_id = event.target
        else:
            candidates = sorted(occupied)
            if not candidates:
                return []
            pset_id = env.bluegene.pset_of(rng.choice(candidates))
        victims: List[str] = []
        for node in env.bluegene.nodes_in_pset(pset_id):
            node.fail()
            failed_nodes.append(node.node_id)
            _notify_failure(env, node.node_id, "node",
                            f"pset {pset_id} killed by fault injection")
            for label in occupied.get(node.index, []):
                if label not in victims:
                    victims.append(label)
        io_node = env.bluegene.io_nodes[pset_id]
        io_node.fail()
        failed_nodes.append(io_node.node_id)
        _notify_failure(env, io_node.node_id, "pset",
                        f"I/O node of pset {pset_id} killed by fault injection")
        return victims

    if event.scenario == "degrade-link":
        candidates = sorted(occupied)
        if len(candidates) < 2:
            return []
        src, dst = rng.sample(candidates, 2)
        path = env.torus.routes.route(src, dst)
        for a, b in zip(path, path[1:]):
            env.torus.degrade_link(a, b, event.factor)
            degraded.append(f"torus {a}<->{b} x{event.factor:g}")
            _notify_failure(env, f"torus[{a}<->{b}]", "link",
                            f"degraded x{event.factor:g}")
        return list(occupied.get(dst, []))

    assert event.scenario == "degrade-uplink"
    env.fabric.degrade_uplink(event.factor)
    degraded.append(f"eth uplink x{event.factor:g}")
    _notify_failure(env, "eth-uplink", "link", f"degraded x{event.factor:g}")
    running = [
        label for label in session.labels() if session.deployment(label).running
    ]
    if not running:
        return []
    return [rng.choice(running)]


# ----------------------------------------------------------------------
# Picklable repeat payloads for SweepExecutor.map
# ----------------------------------------------------------------------
class FaultTask(Frozen):
    """One fault-benchmark repeat, as a spawn-safe payload.

    The worker rebuilds everything — queries, schedule, environments —
    from these coordinates, so ``--jobs 1`` and ``--jobs N`` execute the
    same function on the same data and agree bit for bit.
    """

    seed: int
    streams: int
    scenario: str
    scale: StreamScale
    __slots__ = ("seed", "streams", "scenario", "scale")

    def __init__(self, seed: int, streams: int, scenario: str,
                 scale: StreamScale = DEFAULT_SCALE) -> None:
        self._set_fields(seed, streams, scenario, scale)
        if self.streams < 1:
            raise QueryExecutionError(
                f"need at least one stream, got {self.streams}"
            )
        if self.scenario not in SCENARIOS + COMPOSITE_SCENARIOS:
            raise QueryExecutionError(
                f"unknown fault scenario {self.scenario!r}; "
                f"expected one of {SCENARIOS + COMPOSITE_SCENARIOS}"
            )


class FaultOutcome(Record):
    """What one :class:`FaultTask` measured (picklable)."""

    __slots__ = ("scenario", "seed", "streams", "fault_time", "healthy_makespan",
                 "faulted_makespan", "recovery_s", "bandwidth_retained", "per_stream_mbps",
                 "failed_nodes", "degraded", "replacements", "results_ok", "flow_records",
                 "restored")

    def __init__(self, scenario: str, seed: int, streams: int, fault_time: float,
                 healthy_makespan: float, faulted_makespan: float, recovery_s: float,
                 bandwidth_retained: float, per_stream_mbps: Dict[str, float],
                 failed_nodes: List[str], degraded: List[str], replacements: List[str],
                 results_ok: bool, flow_records: Optional[List[FlowRecord]] = None,
                 restored: Optional[List[str]] = None) -> None:
        self.scenario = scenario
        self.seed = seed
        self.streams = streams
        self.fault_time = fault_time
        self.healthy_makespan = healthy_makespan
        self.faulted_makespan = faulted_makespan
        self.recovery_s = recovery_s
        #: Faulted/healthy aggregate-bandwidth ratio: the streams move the
        #  same payload either way, so this is ``healthy_makespan /
        #  faulted_makespan`` — 1.0 when the failure cost nothing.
        self.bandwidth_retained = bandwidth_retained
        self.per_stream_mbps = per_stream_mbps
        self.failed_nodes = failed_nodes
        self.degraded = degraded
        self.replacements = replacements
        self.results_ok = results_ok
        self.flow_records = [] if flow_records is None else flow_records
        self.restored = [] if restored is None else restored

    @property
    def aggregate_mbps(self) -> float:
        return sum(self.per_stream_mbps.values())


def fault_queries(task: FaultTask) -> List[BenchQuery]:
    """The deck queries of a fault run: stream k runs its deck's opener."""
    return [
        build_query(query_order(k, task.seed)[0], k, task.scale, task.seed)
        for k in range(task.streams)
    ]


def run_fault_task(task: FaultTask) -> FaultOutcome:
    """Execute one fault-benchmark repeat in the current process.

    Runs the concurrent streams twice on identically seeded environments:
    once healthy to learn the fault-free makespan (the fault strikes at
    :data:`FAULT_AT_FRACTION` of it), then with the schedule injected and flow
    instrumentation on.  Every final result is checked against the
    workload's reference value — a replanned stream must still produce the
    exact answer.
    """
    config = EnvironmentConfig().with_seed(task.seed)
    queries = fault_queries(task)
    with registered(queries):
        healthy_env = shared_template(config).fork(seed=config.seed)
        healthy = run_faulted_session(healthy_env, queries, FaultSchedule())
        fault_time = FAULT_AT_FRACTION * healthy.makespan
        if task.scenario == "correlated":
            schedule = FaultSchedule.correlated(fault_time, seed=task.seed)
        elif task.scenario == "flapping":
            # Spread the degrade/restore cycles over the remaining healthy
            # runtime — a pure function of the healthy makespan, so every
            # worker derives the identical schedule.
            period = (healthy.makespan - fault_time) / FLAPPING_CYCLES
            schedule = FaultSchedule.flapping(fault_time, period, seed=task.seed)
        else:
            schedule = FaultSchedule.single(task.scenario, fault_time, seed=task.seed)
        faulted_env = shared_template(config).fork(
            seed=config.seed, obs=Instrumentation(tracer=NULL_TRACER),
        )
        faulted = run_faulted_session(faulted_env, queries, schedule)
    results_ok = all(
        faulted.reports[f"s{query.stream_id}"].result == [query.expected_result]
        for query in queries
    )
    per_stream_mbps = {
        f"s{query.stream_id}": (
            query.payload_bytes * 8.0
            / faulted.completions[f"s{query.stream_id}"] / MEGA
        )
        for query in queries
    }
    return FaultOutcome(
        scenario=task.scenario,
        seed=task.seed,
        streams=task.streams,
        fault_time=fault_time,
        healthy_makespan=healthy.makespan,
        faulted_makespan=faulted.makespan,
        recovery_s=faulted.recovery_s,
        bandwidth_retained=(
            healthy.makespan / faulted.makespan if faulted.makespan > 0.0 else 1.0
        ),
        per_stream_mbps=per_stream_mbps,
        failed_nodes=faulted.failed_nodes,
        degraded=faulted.degraded,
        replacements=faulted.replacements,
        results_ok=results_ok,
        flow_records=faulted.flow_records,
        restored=faulted.restored,
    )
