"""Dynamic sanitizers: schedule races, resource leaks, and liveness.

The static half of :mod:`repro.analysis` proves things about *plans*; this
module audits *executions*.  Three analyzers share the ``SANxxx`` range of
the diagnostic catalogue:

* **schedule-race detector** (``SAN1xx``) — replays a harness under the
  seeded :class:`~repro.sim.scheduler.ShuffleScheduler`, which permutes the
  dispatch order of same-instant/same-rank events (every permutation is a
  legal total order under the kernel's ``(when, rank, seq)`` contract).
  A harness whose outcome changes across shuffle seeds depends on incidental
  FIFO order — the simulation equivalent of a data race (``SAN101``).
  :func:`chaos` also swaps the sequential :class:`~repro.net.jitter.Jitter`
  for the order-independent :class:`~repro.net.jitter.KeyedJitter`: the
  stock jitter draws from one RNG *in dispatch order*, which would make
  every jittered run order-dependent by construction and mask real races.

* **leak sanitizer** (``SAN2xx``) — audits every
  :meth:`~repro.coordinator.deployer.Deployment.teardown` (a migration's
  included) for state that outlived its owner: live kernel processes
  (``SAN201``), open inboxes (``SAN202``), blocked store waiters
  (``SAN203``), wire carrier registrations (``SAN204``) and node slots
  not returned to the CNDB (``SAN205``).

* **liveness analyzer** (``SAN301``) — when the event queue drains with
  waiters outstanding, renders the wait-for graph
  (:mod:`repro.sim.introspect`) and names the wedged culprits instead of
  leaving a silent hang in the numbers.

Teardown is asynchronous at heart: :meth:`RunningProcess.terminate`
*schedules* interrupts, so a mid-run teardown cannot be judged for live
processes synchronously.  Audits therefore run in two phases — structural
checks (inboxes, carriers, node slots) immediately at teardown,
liveness checks (processes, waiters) either immediately when the event
queue is already drained or deferred to :func:`assert_quiescent` /
sanitizer-scope exit.

Usage::

    from repro.analysis import sanitize

    with sanitize.sanitizer() as scope:      # audits every teardown
        with sanitize.chaos(seed=1):          # shuffle + keyed jitter
            outcome = run_harness()
        sanitize.assert_quiescent(env)        # env-level leak audit
    # strict scope: raises SanitizationError when findings exist

Entry points: the ``--sanitize`` / ``--chaos-seed`` flags of the
``bench`` and ``adaptive`` commands, and pytest's (hooks of the
repository's root ``conftest.py``).  The code catalogue is
documented in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.diagnostics import (
    CATALOG,
    AnalysisReport,
    Diagnostic,
)
from repro.util.errors import SanitizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.coordinator.deployer import Deployment
    from repro.hardware.environment import Environment
    from repro.obs.flow import NullFlowRecorder

__all__ = [
    "SanitizerScope",
    "assert_quiescent",
    "audit_teardown",
    "chaos",
    "current",
    "enabled",
    "flow_fingerprint",
    "run_scoped",
    "run_shuffled",
    "sanitizer",
]

def _san(
    code: str,
    message: str,
    sp_id: Optional[str] = None,
) -> Diagnostic:
    """A sanitizer diagnostic with its catalogued default severity."""
    severity, _title = CATALOG[code]
    return Diagnostic(code=code, severity=severity, message=message, sp_id=sp_id)


# ---------------------------------------------------------------------------
# Chaos mode: legal same-instant permutations, order-independent jitter
# ---------------------------------------------------------------------------
@contextmanager
def chaos(seed: int = 0) -> Iterator[None]:
    """Scope within which every default-configured simulator is chaotic.

    Installs two paired overrides:

    * :class:`~repro.sim.scheduler.ShuffleScheduler` — dispatches
      same-``(when, rank)`` events in a seeded random order instead of
      insertion order;
    * :class:`~repro.net.jitter.KeyedJitter` — jitter noise as a pure
      function of ``(seed, cost)`` instead of sequential draws from one
      RNG, so the jitter a message sees cannot depend on dispatch order.

    A correct harness produces **bit-identical** results for every chaos
    seed (the keyed jitter depends only on the environment seed, not the
    chaos seed).  Results legitimately differ from un-chaosed runs when
    jitter is enabled — compare chaos runs against chaos runs.
    """
    from repro.net.jitter import KeyedJitter, jitter_override
    from repro.sim.scheduler import ShuffleScheduler, scheduler_override

    global _CHAOS_SEED
    previous, _CHAOS_SEED = _CHAOS_SEED, seed
    try:
        with scheduler_override(lambda: ShuffleScheduler(seed)):
            with jitter_override(KeyedJitter):
                yield
    finally:
        _CHAOS_SEED = previous


#: Seed of the active :func:`chaos` scope — what a worker process needs to
#: re-enter it (the overrides themselves are closures and do not pickle).
_CHAOS_SEED: Optional[int] = None


def chaos_seed() -> Optional[int]:
    """Seed of the active :func:`chaos` scope, or None."""
    return _CHAOS_SEED


# ---------------------------------------------------------------------------
# Sanitizer scope
# ---------------------------------------------------------------------------
class SanitizerScope:
    """Mutable state of one active :func:`sanitizer` scope.

    Attributes:
        report: Accumulates every finding of the scope.
        strict: Raise :class:`SanitizationError` at scope exit on findings.
        deferred: Deployments torn down while their simulator still had
            events queued; their liveness audit re-runs at scope exit (or
            at :func:`assert_quiescent`) once the queue has drained.
    """

    def __init__(self, label: str = "sanitize", strict: bool = True) -> None:
        self.report = AnalysisReport(label=label)
        self.strict = strict
        self.deferred: List["Deployment"] = []
        self.audited = 0

    def absorb(self, audited: int, findings: Sequence[Diagnostic]) -> None:
        """Take over what a worker's scope audited (see :func:`run_scoped`)."""
        self.audited += audited
        self.report.diagnostics.extend(findings)


_SCOPE: Optional[SanitizerScope] = None


def enabled() -> bool:
    """True while a :func:`sanitizer` scope is active (audit hooks fire)."""
    return _SCOPE is not None


def current() -> Optional[SanitizerScope]:
    """The active scope, or None.  Read-only use (reports, tests)."""
    return _SCOPE


@contextmanager
def sanitizer(
    label: str = "sanitize", strict: bool = True
) -> Iterator[SanitizerScope]:
    """Scope within which every teardown/migration is audited for leaks.

    Yields the :class:`SanitizerScope`; its ``report`` carries the findings.
    At a clean exit, deployments whose liveness audit was deferred (torn
    down mid-run) are re-audited if their simulator has drained since.
    With ``strict`` (the default) a scope with findings raises
    :class:`~repro.util.errors.SanitizationError`; pass ``strict=False``
    to collect findings and judge the report yourself.

    Scopes do not nest: the audit hooks are module-global.
    """
    global _SCOPE
    if _SCOPE is not None:
        raise SanitizationError("sanitizer scopes do not nest")
    scope = SanitizerScope(label=label, strict=strict)
    _SCOPE = scope
    try:
        yield scope
        flush_deferred(scope)
        if strict and not scope.report.ok():
            _raise(scope.report)
    finally:
        _SCOPE = None


def run_scoped(
    fn: Callable[[Any], Any], task: Any, label: Optional[str], seed: Optional[int]
) -> Tuple[Any, int, List[Diagnostic]]:
    """Run ``fn(task)`` under the scopes its submitter was in.

    Both scopes are module-global and stop at a ``spawn`` boundary, so
    :meth:`repro.core.parallel.SweepExecutor.map` ships this call instead of
    ``fn`` itself: the worker re-enters :func:`chaos` (``seed`` not None)
    and a non-strict :func:`sanitizer` (``label`` not None, the parent
    scope's) and returns ``(result, teardowns audited, findings)`` for the
    parent scope to :meth:`~SanitizerScope.absorb`.  With neither it is a
    plain call.
    """
    scope = None
    with ExitStack() as stack:
        if seed is not None:
            stack.enter_context(chaos(seed))
        if label is not None:
            scope = stack.enter_context(sanitizer(label=label, strict=False))
        result = fn(task)
    if scope is None:
        return result, 0, []
    return result, scope.audited, scope.report.diagnostics


def _raise(report: AnalysisReport) -> None:
    failing = report.errors + report.warnings
    raise SanitizationError(
        f"sanitizer found {len(failing)} defect(s) in {report.label!r}:\n"
        + "\n".join("  " + d.format() for d in failing),
        diagnostics=failing,
    )


def flush_deferred(scope: SanitizerScope) -> None:
    """Re-audit deferred deployments whose simulator has since drained.

    A deployment torn down mid-run holds pending interrupts — its processes
    are still formally alive and cannot be judged leaked.  Once the event
    queue drains, every interrupt has dispatched and whatever is left is a
    leak.  Deployments whose simulator still has queued events are kept
    deferred (the caller may legitimately still be running it).
    """
    still_deferred: List["Deployment"] = []
    for deployment in scope.deferred:
        if deployment.env.sim.peek() == float("inf"):
            _audit_liveness(scope.report, deployment)
        else:
            still_deferred.append(deployment)
    scope.deferred[:] = still_deferred


# ---------------------------------------------------------------------------
# Leak audits (hooked by Deployment.teardown)
# ---------------------------------------------------------------------------
def audit_teardown(deployment: "Deployment") -> None:
    """Audit one just-torn-down deployment (called from ``teardown()``).

    Structural leaks — open inboxes, carrier registrations, unreleased
    node slots — are synchronous facts and are checked immediately.
    Liveness (processes, waiters) is checked immediately only when the
    event queue is already drained; otherwise the deployment is deferred
    (see :func:`flush_deferred`).
    """
    scope = _SCOPE
    if scope is None:
        return
    scope.audited += 1
    _audit_structural(scope.report, deployment)
    if deployment.env.sim.peek() == float("inf"):
        _audit_liveness(scope.report, deployment)
    else:
        scope.deferred.append(deployment)


def _audit_structural(report: AnalysisReport, deployment: "Deployment") -> None:
    """Checks that must hold the instant ``teardown()`` returns."""
    env = deployment.env
    label = deployment.owner_tag
    for rp_id, data in deployment.census().items():
        for inbox_name in data["open_inboxes"]:
            report.add(_san(
                "SAN202",
                f"inbox {inbox_name!r} of {rp_id} is still open after "
                f"teardown of {label}",
                sp_id=rp_id,
            ))
        if not data["node_released"]:
            report.add(_san(
                "SAN205",
                f"RP {rp_id} did not return its node slot to the CNDB "
                f"at teardown of {label}",
                sp_id=rp_id,
            ))
    registered = {stream for _node, stream in env.torus.active_stream_census()}
    for stream_id in deployment.stream_ids():
        if stream_id in registered:
            report.add(_san(
                "SAN204",
                f"stream {stream_id!r} is still registered with the torus "
                f"after teardown of {label} (its receive switching cost "
                f"taxes every later deployment)",
            ))


def _live_waiters(store: Any) -> int:
    """Waiter events on ``store`` with a still-alive process attached.

    A store of a terminated deployment routinely keeps inert getter/putter
    events whose process died by interrupt — dead state collected with the
    deployment, not a leak.  A waiter is *blocked* (``SAN203``) only while
    a live process would resume from it.
    """
    from repro.sim.introspect import waiters_of

    count = 0
    for event in list(store._getters) + list(store._putters):
        if any(process.is_alive for process in waiters_of(event)):
            count += 1
    return count


def _audit_liveness(report: AnalysisReport, deployment: "Deployment") -> None:
    """Checks valid only once the event queue has drained (no interrupts
    still in flight): leaked processes, blocked waiters, wedged culprits."""
    from repro.sim.introspect import wait_edges

    label = deployment.owner_tag
    live = []
    stores = []
    for rp in deployment.rps.values():
        live.extend(rp.live_processes())
        stores.extend(rp.kernel_stores())
    for process in live:
        report.add(_san(
            "SAN201",
            f"process {process.name!r} is still alive after teardown of "
            f"{label} and the event queue drained",
        ))
    for store in stores:
        waiting = _live_waiters(store)
        if waiting:
            report.add(_san(
                "SAN203",
                f"store {store.name!r} holds {waiting} blocked waiter(s) "
                f"after teardown of {label}",
            ))
    if live:
        for edge in wait_edges(live, stores=stores):
            blockers = (
                " <- " + ", ".join(repr(b.name) for b in edge.blockers)
                if edge.blockers else ""
            )
            report.add(_san(
                "SAN301",
                f"wedged: {edge.process.name!r} waits on {edge.kind} — "
                f"{edge.detail}{blockers}",
            ))


# ---------------------------------------------------------------------------
# Environment-level quiescence
# ---------------------------------------------------------------------------
def assert_quiescent(
    env: "Environment",
    raise_on_findings: bool = True,
) -> AnalysisReport:
    """Audit an environment for leaked state after all work is done.

    Call at harness end, after the final ``sim.run()`` returned and every
    deployment was torn down.  Checks, environment-wide:

    * ``SAN204`` — carrier registrations left in the torus; buffers, or
      flow records, still in flight on a drained simulator (the latter:
      streams closed without
      :meth:`~repro.obs.flow.FlowRecorder.drop_stream`);
    * ``SAN205`` — per-node occupancy differing from the template's
      pristine state (somebody acquired a slot and never released it);
    * deferred deployment audits (``SAN201``/``SAN203``/``SAN301``) of an
      active :func:`sanitizer` scope, for deployments on this simulator.

    Findings are also appended to the active scope's report.  Returns the
    quiescence report; raises :class:`SanitizationError` on findings unless
    ``raise_on_findings=False``.
    """
    report = AnalysisReport(label="quiescence")
    scope = _SCOPE
    drained = env.sim.peek() == float("inf")
    if scope is not None:
        still_deferred: List["Deployment"] = []
        for deployment in scope.deferred:
            if deployment.env.sim is env.sim and drained:
                _audit_liveness(report, deployment)
            else:
                still_deferred.append(deployment)
        scope.deferred[:] = still_deferred

    for node, stream_id in env.torus.active_stream_census():
        report.add(_san(
            "SAN204",
            f"stream {stream_id!r} is still registered at torus node "
            f"{node} with no deployment left to own it",
        ))
    if drained:
        for stream_id, count in env.torus.in_flight_census():
            report.add(_san(
                "SAN204",
                f"{count} buffer(s) of stream {stream_id!r} never returned "
                f"their torus window slot (stuck in flight on a drained "
                f"simulator)",
            ))
    flows = env.obs.flows
    if flows.enabled and drained and flows.in_flight_count:
        for stream_id, count in sorted(flows.in_flight_streams().items()):
            report.add(_san(
                "SAN204",
                f"{count} flow record(s) of stream {stream_id!r} still in "
                f"flight on a drained simulator (closed without "
                f"drop_stream)",
            ))

    pristine = dict(env.template._pristine.node_status)
    for name in sorted(env.cndbs):
        cndb = env.cndbs[name]
        for node, (running, _failed) in zip(cndb._nodes, pristine[name]):
            if node.running_processes != running:
                report.add(_san(
                    "SAN205",
                    f"node {node.node_id} holds {node.running_processes} "
                    f"running process(es), pristine state had {running} — "
                    f"a slot was never returned to the CNDB",
                ))

    if scope is not None:
        scope.report.extend(report)
    if raise_on_findings and not report.ok():
        _raise(report)
    return report


# ---------------------------------------------------------------------------
# Schedule-race replay
# ---------------------------------------------------------------------------
def flow_fingerprint(
    flows: "NullFlowRecorder",
) -> Dict[str, Tuple[int, int, int, float, float]]:
    """Order-insensitive per-stream aggregate of completed flows.

    Maps ``stream_id`` to ``(count, bytes, eos_count, first_birth,
    last_delivered)``.  Same-instant shuffling may legally swap which of
    two simultaneous buffers wins a FIFO slot — individual hop timestamps
    are not schedule-invariant — but the stream-level totals and envelope
    are, so this is the granularity ``SAN101`` compares at.
    """
    out: Dict[str, Tuple[int, int, int, float, float]] = {}
    for record in flows.completed:
        count, nbytes, eos, birth, delivered = out.get(
            record.stream_id, (0, 0, 0, float("inf"), float("-inf"))
        )
        out[record.stream_id] = (
            count + 1,
            nbytes + record.nbytes,
            eos + (1 if record.eos else 0),
            min(birth, record.birth),
            max(delivered, record.delivered or float("-inf")),
        )
    return out


def _describe_divergence(baseline: Any, other: Any) -> str:
    """A short rendering of how two harness outcomes differ."""
    if isinstance(baseline, dict) and isinstance(other, dict):
        keys = sorted(
            set(baseline) | set(other),
            key=str,
        )
        differing = [
            str(key) for key in keys
            if baseline.get(key, _MISSING) != other.get(key, _MISSING)
        ]
        preview = ", ".join(differing[:4])
        more = f" (+{len(differing) - 4} more)" if len(differing) > 4 else ""
        return f"keys differ: {preview}{more}"
    base_text, other_text = repr(baseline), repr(other)
    if len(base_text) > 120:
        base_text = base_text[:117] + "..."
    if len(other_text) > 120:
        other_text = other_text[:117] + "..."
    return f"{base_text} != {other_text}"


_MISSING = object()


def run_shuffled(
    harness: Callable[[], Any],
    seeds: Sequence[int] = (0, 1, 2),
    label: str = "chaos-replay",
) -> Tuple[AnalysisReport, List[Any]]:
    """Replay ``harness`` under each chaos seed and flag divergence.

    ``harness`` is a zero-argument callable returning any equality-
    comparable outcome — durations, result payloads,
    :func:`flow_fingerprint` maps, or a dict bundling all three.  Every
    seed's outcome must equal the first seed's **exactly** (bit-identical
    floats): a mismatch is a schedule race and yields one ``SAN101``
    diagnostic per diverging seed.

    Returns ``(report, outcomes)``; outcomes in seed order, for callers
    that also want to compare against a reference value.
    """
    if not seeds:
        raise SanitizationError("run_shuffled needs at least one chaos seed")
    report = AnalysisReport(label=label)
    outcomes: List[Any] = []
    for seed in seeds:
        with chaos(seed):
            outcomes.append(harness())
    baseline = outcomes[0]
    for seed, outcome in zip(seeds[1:], outcomes[1:]):
        if outcome != baseline:
            report.add(_san(
                "SAN101",
                f"chaos seed {seed} diverged from seed {seeds[0]}: "
                f"{_describe_divergence(baseline, outcome)} — the harness "
                f"outcome depends on same-instant event dispatch order",
            ))
    if _SCOPE is not None:
        _SCOPE.report.extend(report)
    return report, outcomes
