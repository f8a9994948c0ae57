"""The deployer: explicit place -> deploy -> run -> teardown lifecycle.

This is the coordinator-layer half of the compile-once query lifecycle
(parse -> compile -> **place -> deploy -> run -> teardown**).  The SCSQL
front end produces an environment-independent
:class:`~repro.scsql.plan.DeploymentPlan`; the :class:`Deployer` binds it
to one live :class:`~repro.hardware.environment.Environment`:

* :meth:`Deployer.place` applies a :class:`PlacementStrategy` — the
  paper's node-selection algorithms (:class:`SelectorPlacement`) or the
  cost-based optimizer (:class:`CostBasedPlacement`) — to a fresh
  instantiation of the plan's graph, yielding a :class:`PlacedPlan`.
* :meth:`Deployer.deploy` runs the structure check
  (:func:`~repro.coordinator.graph.check_structure`) and the placement
  resolver (:func:`~repro.coordinator.resolver.resolve_placement`) against
  the environment's CNDBs, starts a running process on every assigned
  node, and wires the subscription edges — a live :class:`Deployment`.  A
  deployment that cannot be built raises the coded diagnostics
  :meth:`Deployer.verify` reports for it and leaves the environment as it
  found it.
* :meth:`Deployment.run` drives one query to completion (the classic
  single-query path), while :meth:`Deployment.start` /
  :meth:`Deployment.finish` let several deployments share one simulation —
  the concurrent-CQ path of :class:`~repro.core.multiquery.MultiQuerySession`.
* :meth:`Deployment.teardown` stops leftover RPs, returns their nodes to
  the CNDBs, and restores the CNDB round-robin cursors to their
  deploy-time positions, so redeploying on the same environment neither
  raises nor shifts placement.

"When a user submits a CQ, it is optimized and started in the client
manager" (paper section 2.2) — :meth:`Deployer.run` is that one-shot form.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.coordinator.allocation import (
    AllocationSequence,
    NaiveSelector,
    NodeSelector,
)
from repro.coordinator.graph import QueryGraph, check_structure
from repro.coordinator.resolver import placement_failure, resolve_placement
from repro.engine.monitor import RPStatistics, snapshot
from repro.engine.objects import END_OF_STREAM
from repro.engine.rp import RunningProcess
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import BLUEGENE, FRONTEND, Environment
from repro.util.errors import (
    AllocationError,
    PlanVerificationError,
    QueryExecutionError,
)
from repro.util.record import Record

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport
    from repro.hardware.node import Node
    from repro.sim.events import Event, Process, Timeout

#: Reserved id of the deployment's own collector RP (the client manager's
#: root plan interpreter).
ROOT_RP_ID = "__client_manager__"

#: Simulated delay of one bgCC poll of the feCC registration queue.  "When
#: the client manager identifies an SP, the sub-query of that SP is
#: registered with the coordinator of the cluster where the sub-query is to
#: be executed" (paper section 2.2); BlueGene compute nodes cannot accept
#: connections, so the bgCC "retrieves new sub-queries from the feCC by
#: polling" and a deployment with a BlueGene SP pays this once before its
#: RPs exist.  The feCC and beCC accept registrations immediately.
BG_POLL_INTERVAL = 1e-3


class MigrationRecord(Record):
    """The audit trail of one live migration attempt.

    Attributes:
        sp_id: The migrated stream process (unprefixed id).
        source: Node id the SP ran on before the migration.
        target: Node id the optimizer chose (where the SP runs after a
            successful migration; a rolled-back attempt stays on ``source``).
        rp_prefix: Prefix of the new deployment generation (``"<label>+gN/"``).
        time: Simulated second the migration was initiated.
        ok: True when the migrated plan deployed.
        rolled_back: True when the move could not be placed and the
            deployment was restored at its original placement.
        detail: Human-readable outcome (the coded diagnostics on rollback).
    """

    __slots__ = ("sp_id", "source", "target", "rp_prefix", "time", "ok", "rolled_back", "detail")

    def __init__(self, sp_id: str, source: str, target: str, rp_prefix: str, time: float, ok: bool,
                 rolled_back: bool = False, detail: str = "") -> None:
        self.sp_id = sp_id
        self.source = source
        self.target = target
        self.rp_prefix = rp_prefix
        self.time = time
        self.ok = ok
        self.rolled_back = rolled_back
        self.detail = detail


class ExecutionReport(Record):
    """Everything a measurement needs to know about one query run."""

    __slots__ = ("result", "duration", "rp_placements", "bytes_sent", "stopped", "rp_statistics")

    def __init__(self, result: List[Any], duration: float,
                 rp_placements: Optional[Dict[str, str]] = None,
                 bytes_sent: Optional[Dict[str, int]] = None, stopped: bool = False,
                 rp_statistics: Optional[Dict[str, RPStatistics]] = None) -> None:
        #: The objects the root select produced, in arrival order.
        self.result = result
        #: Simulated seconds from query start to final result delivery.
        self.duration = duration
        #: Stream process id -> node id, for topology assertions.
        self.rp_placements = {} if rp_placements is None else rp_placements
        #: Stream process id -> payload bytes its senders pushed.
        self.bytes_sent = {} if bytes_sent is None else bytes_sent
        #: True when the query was terminated by user intervention rather than
        #  by its streams ending (the result holds whatever arrived before the
        #  stop).
        self.stopped = stopped
        #: Per-RP monitoring snapshots (paper Figure 3, responsibility v).
        self.rp_statistics = {} if rp_statistics is None else rp_statistics

    def describe(self) -> str:
        """Human-readable execution summary: result, time, per-RP activity."""
        lines = [
            f"result: {self.result!r}",
            f"duration: {self.duration * 1e3:.3f} ms simulated"
            + (" (stopped)" if self.stopped else ""),
        ]
        for rp_id in sorted(self.rp_statistics):
            lines.append(self.rp_statistics[rp_id].describe())
        return "\n".join(lines)

    @property
    def scalar_result(self) -> Any:
        """The single value of a one-element result stream.

        Raises:
            QueryExecutionError: If the result is not exactly one object.
        """
        if len(self.result) != 1:
            raise QueryExecutionError(
                f"expected a single result object, got {len(self.result)}"
            )
        return self.result[0]


# ----------------------------------------------------------------------
# Placement strategies
# ----------------------------------------------------------------------
class PlacementStrategy:
    """How stream processes without explicit allocations get their nodes.

    Explicit allocation sequences in the query always win (the paper's
    rule); a strategy only governs the unconstrained stream processes —
    either by *pinning* them during :meth:`prepare` (cost-based placement)
    or by nominating the :class:`~repro.coordinator.allocation.NodeSelector`
    the placement resolver consults at deploy time (selector placement).
    """

    @property
    def selector(self) -> Optional[NodeSelector]:
        """Node selector for unconstrained SPs (None: the naive default)."""
        return None

    def prepare(
        self, graph: QueryGraph, env: Environment, settings: ExecutionSettings
    ) -> None:
        """Annotate ``graph`` (e.g. pin allocations) before deployment."""


class SelectorPlacement(PlacementStrategy):
    """Placement by a node-selection algorithm, decided at deploy time.

    This is the paper's default pipeline: each unconstrained stream
    process gets "the next available node" (naive) — or whatever another
    :class:`~repro.coordinator.allocation.NodeSelector` picks, e.g. the
    knowledge-based policy of the ablation study — during the deploy-time
    placement walk.
    """

    def __init__(self, selector: Optional[NodeSelector] = None):
        self._selector = selector or NaiveSelector()

    @property
    def selector(self) -> Optional[NodeSelector]:
        return self._selector


class CostBasedPlacement(PlacementStrategy):
    """Placement by the cost-based optimizer, pinned at place time.

    Runs :class:`~repro.optimizer.placement.CostBasedPlacer` over the
    instantiated graph, pinning every unconstrained stream process to the
    node that maximizes the predicted bottleneck bandwidth.
    """

    def prepare(
        self, graph: QueryGraph, env: Environment, settings: ExecutionSettings
    ) -> None:
        from repro.optimizer.placement import CostBasedPlacer  # import cycle

        CostBasedPlacer(env, settings).place(graph)


class PlacedPlan(Record):
    """A plan bound to a placement decision, ready to deploy.

    The graph is a private instantiation (the source
    :class:`~repro.scsql.plan.DeploymentPlan` stays pristine), possibly
    carrying placer-pinned allocations; symbolic specs are resolved by the
    deploy-time placement walk.
    """

    __slots__ = ("graph", "settings", "selector")

    def __init__(self, graph: QueryGraph, settings: ExecutionSettings,
                 selector: Optional[NodeSelector] = None) -> None:
        self.graph = graph
        self.settings = settings
        self.selector = selector


# ----------------------------------------------------------------------
# Deployment
# ----------------------------------------------------------------------
class Deployment:
    """One continuous query deployed onto an environment.

    Construction *is* deployment: the graph passes the structure check,
    the placement resolver assigns every stream process a node, each gets
    a running process there, and subscription edges are wired — or, when
    any of that fails, the exception leaves node occupancy and the CNDB
    cursors as they were.
    The query then either runs alone (:meth:`run`) or cooperatively with
    other deployments sharing the environment's simulator (:meth:`start` +
    one ``sim.run()`` + :meth:`finish`).

    ``rp_prefix`` namespaces the running-process ids (and thereby stream
    ids) so concurrent deployments of identical plans stay distinct; the
    reported placements and statistics keep the *unprefixed* stream-process
    ids, matching the single-query reports.
    """

    def __init__(
        self,
        env: Environment,
        node: "Node",
        placed: PlacedPlan,
        rp_prefix: str = "",
    ):
        self.env = env
        self.node = node
        self.graph = placed.graph
        self.settings = placed.settings
        self.rp_prefix = rp_prefix
        diagnostics, _ = check_structure(self.graph)
        if not diagnostics:
            self._assignment, diagnostics = resolve_placement(
                self.graph, env, placed.selector or NaiveSelector()
            )
        if diagnostics:
            raise placement_failure(diagnostics)
        self.rps: Dict[str, RunningProcess] = {}
        self.setup_latency = max(
            (BG_POLL_INTERVAL if sp.cluster == BLUEGENE else 0.0
             for sp in self.graph.sps.values()),
            default=0.0,
        )
        self.start_time: Optional[float] = None
        self._process = None
        self._collector = None
        self._torn_down = False
        self._stopped = False
        # The resolver's slots pass to the running processes (each acquires
        # its own, for its lifetime); teardown() undoes a partial build.
        self._assignment.release()
        try:
            for sp in self.graph.sps.values():
                assert sp.plan is not None  # check_structure() checked
                self.rps[sp.sp_id] = RunningProcess(
                    rp_prefix + sp.sp_id, env, self._assignment.nodes[sp.sp_id],
                    sp.plan, self.settings,
                )
            assert self.graph.root_plan is not None
            self.root = self.rps[ROOT_RP_ID] = RunningProcess(
                rp_prefix + ROOT_RP_ID, env, node, self.graph.root_plan, self.settings
            )
            self._wire()
        except BaseException:
            self.teardown()
            raise

    @property
    def owner_tag(self) -> str:
        """This deployment's label in the leak sanitizer's SAN2xx and
        SAN301 messages."""
        return f"deployment:{self.rp_prefix.rstrip('/') or ROOT_RP_ID}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[float] = None) -> ExecutionReport:
        """Run this query to completion on a quiescent simulator.

        Finite queries run until their streams end.  ``stop_after`` is a
        user stop that many simulated seconds after the query starts — the
        paper's "explicit user intervention" — terminating every RP; the
        report then carries the partial result with ``stopped=True``.

        Raises:
            QueryExecutionError: ``stop_after`` is negative or not finite.
        """
        sim = self.env.sim
        deadline = None
        if stop_after is not None:
            if not 0.0 <= stop_after < math.inf:
                self.teardown()
                raise QueryExecutionError(
                    f"stop_after must be a finite number of seconds >= 0, got {stop_after!r}"
                )
            deadline = sim.timeout(stop_after)
            deadline.callbacks = [self._stop]
        self.start_time = sim.now
        result, finished_at = sim.run_process(
            self._drive(deadline), name=self.rp_prefix + "client-manager"
        )
        return self._report(result, finished_at, stopped=self._stopped)

    def start(self) -> "Process":
        """Spawn this query's driver process without running the simulator.

        Used when several deployments share one environment: start each,
        run the simulator once, then :meth:`finish` each.  Returns the
        driver :class:`~repro.sim.core.Process`.
        """
        if self.start_time is not None:
            raise QueryExecutionError("deployment already started")
        self.start_time = self.env.sim.now
        self._process = self.env.sim.process(
            self._drive(), name=self.rp_prefix + "client-manager"
        )
        # finish() re-raises the driver's failure; keep the kernel's
        # unhandled-exception check from firing first.
        self._process.defuse()
        return self._process

    def finish(self) -> ExecutionReport:
        """Collect the report of a :meth:`start`-ed query after the run,
        once: the finished driver and collector processes are dropped."""
        process = self._process
        if process is None:
            raise QueryExecutionError(
                "deployment was never started" if self.start_time is None
                else "deployment already finished"
            )
        if not process.triggered:
            raise QueryExecutionError(
                f"deployment {self.rp_prefix or ROOT_RP_ID!r} never finished "
                "(simulator stopped early or deadlocked)"
            )
        self._process = self._collector = None
        if not process.ok:
            raise process.value
        result, finished_at = process.value
        return self._report(result, finished_at)

    def teardown(self) -> None:
        """Release the deployment's resources back to the environment.

        Stops any still-live RP processes, returns every RP's node slot to
        its CNDB (normally-completed RPs already released theirs on join —
        this is idempotent), and rewinds the CNDB round-robin cursors to
        their deploy-time positions.  After teardown the environment hosts
        a redeployment of the same plan with identical placement.
        """
        if self._torn_down:
            return
        self._torn_down = True
        for rp in self.rps.values():
            rp.terminate()
            rp.release_node()
        self._assignment.rewind(self.env)
        # Only the collector is interrupted directly — its failure
        # propagates through _drive's any_of wait, whose handler unwinds
        # the driver; interrupting _drive as well would orphan the pending
        # condition event undefused.
        self._end_collector("deployment torn down")
        if self._process is not None and self._process.is_alive:
            self._process.defuse()
        # Terminated receivers never consume their EOS, so the in-flight
        # flow records of this deployment's streams would otherwise sit in
        # the recorder's table forever (SAN204 at quiescence).  Dropping is
        # a no-op for streams that ran to completion.
        flows = self.env.obs.flows
        if flows.enabled:
            for stream_id in self.stream_ids():
                flows.drop_stream(stream_id)
        # A sanitizer scope can be active only once its module is loaded.
        sanitize = sys.modules.get("repro.analysis.sanitize")
        if sanitize is not None and sanitize.enabled():
            sanitize.audit_teardown(self)

    @property
    def torn_down(self) -> bool:
        return self._torn_down

    @property
    def running(self) -> bool:
        """True while a started deployment's driver has not completed."""
        process = self._process
        return process is not None and not process.triggered and not self._torn_down

    def stream_ids(self) -> List[str]:
        """Every wire stream this deployment's senders opened, sorted."""
        return sorted(
            sender.stream_id
            for rp in self.rps.values()
            for sender in rp.senders
        )

    def census(self) -> Dict[str, dict]:
        """Quiescence-relevant state of every RP (leak-sanitizer feed)."""
        return {rp_id: rp.census() for rp_id, rp in sorted(self.rps.items())}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _report(
        self,
        result: List[Any],
        finished_at: float,
        stopped: bool = False,
    ) -> ExecutionReport:
        assert self.start_time is not None
        rp_statistics = {rp_id: snapshot(rp) for rp_id, rp in self.rps.items()}
        obs = self.env.obs
        if obs.enabled:
            # Unify RP-level monitoring with the obs registry: the hub then
            # carries the per-RP operator/stream counters.
            for stats in rp_statistics.values():
                stats.publish(obs.metrics)
        return ExecutionReport(
            result=result,
            duration=finished_at - self.start_time,
            rp_placements={rp_id: rp.node.node_id for rp_id, rp in self.rps.items()},
            bytes_sent={rp_id: rp.bytes_sent for rp_id, rp in self.rps.items()},
            stopped=stopped,
            rp_statistics=rp_statistics,
        )

    def _wire(self) -> None:
        """Build every RP and connect subscription edges to producers."""
        for rp in self.rps.values():
            for port in rp.build():
                try:
                    producer = self.rps[port.producer_sp]
                except KeyError:
                    raise QueryExecutionError(
                        f"RP {rp.rp_id} subscribes to unknown producer "
                        f"{port.producer_sp!r}"
                    ) from None
                producer.add_subscriber(rp, port.inbox)

    def _stop(self, _deadline: "Event") -> None:
        """The user stop: terminate every RP in the deadline's dispatch."""
        self._stopped = True
        for rp in self.rps.values():
            rp.terminate()

    def _end_collector(self, cause: str) -> None:
        """Interrupt the collector if it still waits on the root result
        store: a crashed, stopped or torn-down query ends no stream."""
        collector = self._collector
        if collector is not None and collector.is_alive:
            collector.interrupt(cause)
            collector.defuse()

    def _drive(self, deadline: Optional["Timeout"] = None) -> Iterator[Any]:
        """Main simulation process: start RPs, collect the root stream."""
        sim = self.env.sim
        if self.setup_latency:
            # bgCC polls the feCC for new subqueries before RPs exist there.
            yield sim.timeout(self.setup_latency)
        if self._torn_down or self._stopped:
            # Torn down or stopped before the RPs exist (a same-instant
            # fault replan, a deadline inside the poll): starting them would
            # run a zombie query that wedges on its closed inboxes.
            for rp in self.rps.values():
                rp.release_node()
            return [], sim.now
        # Any RP process crash fails this event, aborting the query promptly
        # (otherwise a dead operator would leave its subscribers waiting on
        # a stream that never ends).
        failure = sim.event()
        for rp in self.rps.values():
            rp.start(failure=failure)
        collected: List[Any] = []
        # Tracked so teardown() can interrupt it: a deployment torn down
        # externally (fault harness, migration of a wedged query) must not
        # leave its collector blocked on the root result store forever.
        self._collector = collector = sim.process(
            self._collect(collected), name=self.rp_prefix + "cm-collector"
        )
        waits = [collector, failure]
        if deadline is not None:
            waits.append(deadline)
        try:
            yield sim.any_of(waits)
        except BaseException:
            # An RP crashed: terminate the query and surface the error.
            for rp in self.rps.values():
                rp.terminate()
            self._end_collector("query failed")
            raise
        if self._stopped:
            self._end_collector("query stopped")
        elif deadline is not None and deadline.callbacks is not None:
            deadline.callbacks.remove(self._stop)  # completed first: stop nothing
        # The measured query time ends when the result stream completes at
        # the client manager; the flush timers still queued past it (they
        # wake nobody) must not count.
        finished_at = sim.now
        for rp in self.rps.values():
            yield from rp.join()
        self._collector = None  # ended: teardown() has nothing left to interrupt
        return collected, finished_at

    def _collect(self, collected: List[Any]) -> Iterator[Any]:
        """Drain the root result stream into ``collected`` until EOS."""
        assert self.root.result_store is not None
        while True:
            obj = yield self.root.result_store.get()
            if obj is END_OF_STREAM:
                return
            collected.append(obj)

    def __repr__(self) -> str:
        return (
            f"<Deployment prefix={self.rp_prefix!r} sps={len(self.graph.sps)} "
            f"on {self.env!r}>"
        )


# ----------------------------------------------------------------------
# Deployer
# ----------------------------------------------------------------------
class Deployer:
    """Binds compiled deployment plans to one live environment.

    The explicit-lifecycle successor of the one-shot client manager::

        deployer = Deployer(env)
        placed = deployer.place(plan, CostBasedPlacement())
        deployment = deployer.deploy(placed)
        report = deployment.run()
        deployment.teardown()

    or, for the common single-query case, :meth:`run` does all four steps.
    """

    def __init__(self, env: Environment):
        self.env = env
        self.node = env.node(FRONTEND, 0)
        self.deployments: List[Deployment] = []

    def place(
        self,
        plan: Any,
        strategy: Optional[PlacementStrategy] = None,
        settings: Optional[ExecutionSettings] = None,
    ) -> PlacedPlan:
        """Apply a placement strategy to a plan (default: naive selection).

        ``plan`` is a :class:`~repro.scsql.plan.DeploymentPlan` or a bare
        :class:`~repro.coordinator.graph.QueryGraph`; either way the
        strategy works on a fresh instantiation, leaving the input pristine.
        """
        strategy = strategy or SelectorPlacement()
        effective = (
            settings
            if settings is not None
            else getattr(plan, "settings", None) or ExecutionSettings()
        )
        graph = plan.instantiate()
        strategy.prepare(graph, self.env, effective)
        return PlacedPlan(graph=graph, settings=effective, selector=strategy.selector)

    def verify(self, plan: Any, label: str = "query") -> "AnalysisReport":
        """Statically verify a plan against this environment's live state.

        Runs the :func:`~repro.analysis.verifier.verify_plan` pass
        pipeline over the plan (a :class:`PlacedPlan`, or anything
        :meth:`place` accepts) on the environment's *current* CNDB state —
        so nodes held by this deployer's live deployments surface as
        cross-plan conflicts (``SCSQ201``).  Pure: the placement walk runs
        between a topology ``snapshot()`` and ``restore()``, so neither
        the plan nor the environment is changed.

        The report's errors are what :meth:`deploy` would raise, code for
        code; ``report.raise_if_failed()`` raises them without deploying
        (``strict=True``: warnings too).
        """
        from repro.analysis.verifier import verify_plan

        placed = plan if isinstance(plan, PlacedPlan) else self.place(plan)
        return verify_plan(placed, env=self.env, label=label, selector=placed.selector)

    def deploy(self, placed: PlacedPlan, rp_prefix: str = "") -> Deployment:
        """Start and wire the running processes of a placed plan.

        Raises:
            AllocationError, PlanVerificationError: The plan cannot deploy
                here (:func:`~repro.coordinator.resolver.placement_failure`);
                ``.diagnostics`` holds the errors :meth:`verify` reports.
        """
        deployment = Deployment(self.env, self.node, placed, rp_prefix=rp_prefix)
        self.deployments.append(deployment)
        return deployment

    def run(
        self,
        plan: Any,
        strategy: Optional[PlacementStrategy] = None,
        settings: Optional[ExecutionSettings] = None,
        stop_after: Optional[float] = None,
    ) -> ExecutionReport:
        """Place, deploy, and run one plan (the single-query fast path)."""
        placed = self.place(plan, strategy, settings)
        return self.deploy(placed).run(stop_after=stop_after)

    def teardown(self) -> None:
        """Tear down all of this deployer's deployments (LIFO)."""
        for live in reversed(self.deployments):
            live.teardown()

    # ------------------------------------------------------------------
    # Live migration
    # ------------------------------------------------------------------
    def _pinned_plan(
        self, plan: Any, settings: ExecutionSettings, assignment: Dict[str, int]
    ) -> PlacedPlan:
        """A fresh instantiation of ``plan`` with every SP pinned."""
        graph = plan.instantiate()
        for sp in graph.sps.values():
            sp.allocation = AllocationSequence(assignment[sp.sp_id])
        return PlacedPlan(graph=graph, settings=settings)

    def migrate(
        self,
        deployment: Deployment,
        plan: Any,
        sp_id: str,
        target: int,
        rp_prefix: str,
    ) -> "tuple[Deployment, MigrationRecord]":
        """Move one stream process of a live deployment to another node.

        The migration lifecycle, end to end:

        1. **quiesce** — :meth:`Deployment.teardown` terminates the old
           generation's RPs (closing their inboxes and aborting in-flight
           channels), returns their node slots, and rewinds the CNDB
           round-robin cursors.
        2. **redeploy** — the new placement (every SP pinned to its
           current node, the victim pinned to ``target``) is deployed
           against the *live* environment under ``rp_prefix`` (a
           ``"<label>+gN/"`` generation suffix) and replays its streams
           from the sources, so a migrated query still produces the exact
           reference result.
        3. **rollback** — if the move cannot be placed (a typed placement
           error: the target was taken or has failed), the deployment is
           restored at its original placement under the same new prefix —
           the placement that just ran, on the slots it just returned.

        Placement cannot be checked before quiescence: the old
        generation's own node slots would surface as ``SCSQ201`` cross-plan
        conflicts against the new plan.  The rollback path is what bounds
        the cost of that ordering to one redeploy at the old placement.

        ``plan`` must be the deployment's source plan (anything with
        ``instantiate()``).  Returns ``(new_deployment, record)``; the
        caller starts the new deployment (:meth:`Deployment.start` /
        :meth:`Deployment.run`).

        Raises:
            QueryExecutionError: For an unknown/root ``sp_id``, a
                no-op ``target``, or a deployment already torn down.
        """
        if deployment.torn_down:
            raise QueryExecutionError("cannot migrate a torn-down deployment")
        if sp_id not in deployment.graph.sps:
            raise QueryExecutionError(
                f"unknown stream process {sp_id!r}; deployment has "
                f"{sorted(deployment.graph.sps)}"
            )
        current = {
            other_id: deployment.rps[other_id].node.index
            for other_id in deployment.graph.sps
        }
        source_node = deployment.rps[sp_id].node
        target_node = self.env.node(deployment.graph.sps[sp_id].cluster, target)
        if target == source_node.index:
            raise QueryExecutionError(
                f"migration of {sp_id!r} targets its current node "
                f"{source_node.node_id}"
            )
        now = self.env.sim.now
        moved = dict(current)
        moved[sp_id] = target
        deployment.teardown()
        rejection = None
        try:
            replacement = self.deploy(
                self._pinned_plan(plan, deployment.settings, moved), rp_prefix
            )
        except (AllocationError, PlanVerificationError) as error:
            rejection = error
            replacement = self.deploy(
                self._pinned_plan(plan, deployment.settings, current), rp_prefix
            )
        record = MigrationRecord(
            sp_id=sp_id, source=source_node.node_id,
            target=target_node.node_id, rp_prefix=rp_prefix, time=now,
            ok=rejection is None, rolled_back=rejection is not None,
            detail=(
                f"moved {sp_id} {source_node.node_id} -> {target_node.node_id}"
                if rejection is None
                else "; ".join(found.format() for found in rejection.diagnostics)
            ),
        )
        return replacement, record
