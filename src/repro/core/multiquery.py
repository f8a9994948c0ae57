"""Concurrent continuous queries sharing one simulated environment.

The paper's client manager hosts many CQs at once ("When a user submits a
CQ, it is optimized and started in the client manager", section 2.2); the
single-query measurement harness never exercises that.  A
:class:`MultiQuerySession` does: it deploys several compiled
:class:`~repro.scsql.plan.DeploymentPlan` objects onto *one* environment —
each under its own rp-prefix namespace so identical plans stay distinct —
starts them together, drives the shared simulator once, and reports the
bandwidth every query achieved while the others were running.

A sweep point may be such a session
(:class:`~repro.core.measurement.PointSpec` with labelled queries); the
``multiquery`` figure (:mod:`repro.core.experiments.contention`) compares
concurrent queries with solo points of the same protocol.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.coordinator.deployer import Deployer, Deployment, ExecutionReport
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.util.errors import QueryExecutionError
from repro.util.record import Record
from repro.util.units import MEGA


class QueryOutcome(Record):
    """What one query of a concurrent run achieved.

    Attributes:
        label: The query's session-unique label.
        report: Its full execution report (placements keep the unprefixed
            stream-process ids).
        payload_bytes: Payload volume the query streamed.
        total_duration: Session-relative completion time (seconds from the
            session's start to this query's final delivery).  Set by the
            adaptive runtime, where it covers migration downtime and
            replay — ``mbps`` then uses it, so adaptive and static numbers
            compare fairly.  ``None`` on the classic path (where it would
            equal ``report.duration`` anyway).
        migrations: Audit records of the live migrations this query went
            through (:class:`~repro.coordinator.deployer.MigrationRecord`);
            empty on the classic path.
    """

    __slots__ = ("label", "report", "payload_bytes", "total_duration", "migrations")

    def __init__(self, label: str, report: ExecutionReport, payload_bytes: int,
                 total_duration: Optional[float] = None,
                 migrations: Optional[List[object]] = None) -> None:
        self.label = label
        self.report = report
        self.payload_bytes = payload_bytes
        self.total_duration = total_duration
        self.migrations = [] if migrations is None else migrations

    @property
    def mbps(self) -> float:
        """Bandwidth under concurrency, in megabits/second."""
        duration = (
            self.total_duration
            if self.total_duration is not None
            else self.report.duration
        )
        return self.payload_bytes * 8.0 / duration / MEGA


class MultiQueryResult(Record):
    """Per-query outcomes of one concurrent run, in submission order."""

    __slots__ = ("outcomes", "live", "migrations")

    def __init__(self, outcomes: Optional[List[QueryOutcome]] = None, live: Optional[object] = None,
                 migrations: Optional[List[object]] = None) -> None:
        self.outcomes = [] if outcomes is None else outcomes
        #: The :class:`~repro.obs.live.LiveSampler` that watched the
        #  concurrent run, when the caller attached one (windowed utilization /
        #  latency series plus health events); None otherwise.
        self.live = live
        #: Session-wide migration records in execution order (adaptive runs).
        self.migrations = [] if migrations is None else migrations

    def __getitem__(self, label: str) -> QueryOutcome:
        for outcome in self.outcomes:
            if outcome.label == label:
                return outcome
        raise KeyError(f"no query labelled {label!r}")


class _Entry(Record):
    """One submitted query: its current generation and replay material."""

    __slots__ = ("deployment", "payload_bytes", "plan", "replacements")

    def __init__(self, deployment: Deployment, payload_bytes: int, plan: object,
                 replacements: int = 0) -> None:
        self.deployment = deployment
        self.payload_bytes = payload_bytes
        #: The compiled plan, handed to :meth:`MultiQuerySession.replace`'s
        #  ``redeploy`` so a later generation can re-instantiate the graph.
        self.plan = plan
        self.replacements = replacements


class MultiQuerySession:
    """Runs several compiled plans concurrently on one environment.

    Usage::

        session = MultiQuerySession(env)
        session.submit(plan_a, payload_bytes=..., label="a")
        session.submit(plan_b, payload_bytes=..., label="b")
        result = session.run()
        session.teardown()

    Submission deploys immediately (placement is decided in submission
    order, deterministically); :meth:`run` starts every deployment, drives
    the shared simulator to completion once, and collects every report.

    A driver that acts *while* the queries run (the fault harness, the
    adaptive controller) calls :meth:`run`'s phases itself: :meth:`start`,
    its own ``sim.run(until=)`` steps with :meth:`replace` between them,
    then :meth:`finish`.
    """

    def __init__(
        self,
        env: Optional[Environment] = None,
        settings: Optional[ExecutionSettings] = None,
    ):
        self.env = env or Environment(EnvironmentConfig())
        self.settings = settings
        self.deployer = Deployer(self.env)
        self._entries: Dict[str, _Entry] = {}
        self._started = False

    def submit(
        self,
        plan,
        payload_bytes: int,
        label: Optional[str] = None,
    ) -> str:
        """Place and deploy one plan; returns its label.

        The label namespaces the query's running-process (and stream) ids
        as ``"<label>/<sp_id>"``; it defaults to ``q0``, ``q1``, ... in
        submission order and must be session-unique.  Earlier submissions
        hold their nodes in the shared CNDBs, so a plan pinned to one of
        them fails to deploy (``SCSQ201``), as ``session.deployer.verify``
        would have reported.
        """
        if self._started:
            raise QueryExecutionError("session already ran; use a new session")
        if label is None:
            label = f"q{len(self._entries)}"
        if label in self._entries:
            raise QueryExecutionError(f"duplicate query label {label!r}")
        placed = self.deployer.place(plan, settings=self.settings)
        self._entries[label] = _Entry(
            deployment=self.deployer.deploy(placed, rp_prefix=f"{label}/"),
            payload_bytes=payload_bytes, plan=plan,
        )
        return label

    def labels(self) -> List[str]:
        """Every submitted label, in submission order."""
        return list(self._entries)

    def deployment(self, label: str) -> Deployment:
        """The live deployment behind a label — its current generation."""
        return self._entries[label].deployment

    def run(self) -> MultiQueryResult:
        """Run every submitted query to completion, concurrently.

        All queries start at the same simulated instant; one simulator run
        drives them all, so they contend for nodes, links, and I/O paths
        exactly as co-resident CQs would.
        """
        self.start()
        self.env.sim.run()
        return self.finish()

    def start(self) -> None:
        """Start every submitted query at the current simulated instant."""
        if self._started:
            raise QueryExecutionError("session already ran; use a new session")
        if not self._entries:
            raise QueryExecutionError("no queries submitted")
        self._started = True
        for entry in self._entries.values():
            entry.deployment.start()

    def replace(
        self,
        label: str,
        tag: str,
        redeploy: Callable[[Deployment, object, str], Deployment],
    ) -> Deployment:
        """Swap a started query's deployment for its next generation.

        ``redeploy(current_deployment, plan, rp_prefix)`` retires the
        current generation and returns its successor, deployed under the
        ``"<label>+<tag>N/"`` prefix it is handed (``tag``: ``r`` a fault
        replan, ``g`` a live migration; ``N`` counts the label's
        replacements from 1), which then becomes :meth:`deployment` and is
        started.  If ``redeploy`` raises, nothing changed.
        """
        if not self._started:
            raise QueryExecutionError("session not started; nothing to replace")
        entry = self._entries[label]
        generation = entry.replacements + 1
        replacement = redeploy(
            entry.deployment, entry.plan, f"{label}+{tag}{generation}/"
        )
        entry.replacements = generation
        entry.deployment = replacement
        replacement.start()
        return replacement

    def finish(self) -> MultiQueryResult:
        """Every query's outcome, in submission order, once the simulator
        has drained."""
        return MultiQueryResult(outcomes=[
            QueryOutcome(
                label=label,
                report=entry.deployment.finish(),
                payload_bytes=entry.payload_bytes,
            )
            for label, entry in self._entries.items()
        ])

    def teardown(self) -> None:
        """Tear down every deployment (nodes return to the CNDBs)."""
        self.deployer.teardown()

    def __repr__(self) -> str:
        return f"<MultiQuerySession queries={len(self._entries)} on {self.env!r}>"
