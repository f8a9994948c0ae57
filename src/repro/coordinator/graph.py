"""Process graphs: the compiled, placement-annotated form of a query.

The SCSQL compiler reduces a continuous query to a :class:`QueryGraph` —
the set of stream-process definitions (subquery plan + target cluster +
optional allocation sequence) plus the root plan the client manager itself
interprets.  The client manager turns the graph into running processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.coordinator.allocation import AllocationDirective
from repro.engine.sqep import OpSpec
from repro.util.errors import QuerySemanticError
from repro.util.record import Record
from repro.util.source import Span

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic


class SPDef(Record):
    """One stream process: a subquery to run somewhere in a cluster.

    Attributes:
        sp_id: Unique id of the stream process within its query.
        cluster: Target cluster name (``'bg'``, ``'be'``, ``'fe'``).
        plan: The subquery's execution plan.  The SCSQL compiler registers
            stream processes before compiling their subqueries (definitions
            may reference processes defined later), so the plan may be
            filled in after construction; it must be set before validation.
        allocation: Optional allocation constraint on placement: a symbolic
            :class:`~repro.coordinator.allocation.AllocationSpec` straight
            from the compiler, or a live
            :class:`~repro.coordinator.allocation.AllocationSequence` once
            a deployer has resolved it (or a placer pinned it).
        span: Source position of the ``sp()``/``spv()`` call that created
            this stream process, when compiled from SCSQL text; static
            analysis diagnostics point at it.
    """

    __slots__ = ("sp_id", "cluster", "plan", "allocation", "span")

    def __init__(self, sp_id: str, cluster: str, plan: Optional[OpSpec] = None,
                 allocation: Optional[AllocationDirective] = None,
                 span: Optional[Span] = None) -> None:
        self.sp_id = sp_id
        self.cluster = cluster
        self.plan = plan
        self.allocation = allocation
        self.span = span


class QueryGraph(Record):
    """A full continuous query ready for deployment."""

    __slots__ = ("sps", "root_plan")

    def __init__(self, sps: Optional[Dict[str, SPDef]] = None,
                 root_plan: Optional[OpSpec] = None) -> None:
        self.sps = {} if sps is None else sps
        self.root_plan = root_plan

    def add(self, sp: SPDef) -> None:
        if sp.sp_id in self.sps:
            raise QuerySemanticError(f"duplicate stream process id {sp.sp_id!r}")
        self.sps[sp.sp_id] = sp

    def validate(self) -> None:
        """Raise on the first structural error :func:`check_structure` finds."""
        errors, _ = check_structure(self)
        if errors:
            raise QuerySemanticError(errors[0].message)

    def producers_of(self, plan: OpSpec) -> List[str]:
        """The stream-process ids a plan subscribes to, in plan order."""
        return [leaf.producer for leaf in plan.input_leaves()]  # type: ignore[misc]

    def describe(self) -> str:
        """Every stream process's cluster and subquery plan, then the root
        plan: the text of ``DeploymentPlan.describe()`` and of ``explain``."""
        lines = []
        for sp in self.sps.values():
            pinned = sp.allocation is not None
            lines.append(
                f"stream process {sp.sp_id} on cluster {sp.cluster!r}"
                + (" (explicit allocation)" if pinned else "")
            )
            assert sp.plan is not None
            lines.append(sp.plan.describe(indent=1))
        assert self.root_plan is not None
        lines.append("client manager root plan:")
        lines.append(self.root_plan.describe(indent=1))
        return "\n".join(lines)

    def instantiate(self) -> "QueryGraph":
        """A deployable copy of this graph with fresh :class:`SPDef` objects.

        Deployment mutates ``SPDef.allocation`` (spec resolution, placer
        pinning); instantiating first keeps the source graph — typically
        owned by a reusable :class:`~repro.scsql.plan.DeploymentPlan` —
        pristine.  Plans and allocation directives are shared by reference:
        ``OpSpec`` is immutable, and sharing spec *instances* preserves the
        compiler's guarantee that the members of one ``spv()`` resolve to
        one common stateful sequence.
        """
        copy = QueryGraph(root_plan=self.root_plan)
        for sp in self.sps.values():
            copy.add(
                SPDef(
                    sp_id=sp.sp_id,
                    cluster=sp.cluster,
                    plan=sp.plan,
                    allocation=sp.allocation,
                    span=sp.span,
                )
            )
        return copy


def _found(code: str, message: str, sp: Optional[SPDef] = None) -> "Diagnostic":
    from repro.analysis.diagnostics import diagnostic  # import cycle

    if sp is None:
        return diagnostic(code, message)
    return diagnostic(code, message, sp_id=sp.sp_id, span=sp.span)


def _cycle_from(
    sp_id: str,
    subscriptions: Dict[str, List[str]],
    done: Dict[str, bool],
    trail: List[str],
) -> Optional[List[str]]:
    """The first subscription cycle reachable from ``sp_id``, closed by a
    repeat of its first id, or ``None``.  A module function, not a closure:
    a closure that calls itself is a reference cycle left to the collector."""
    state = done.get(sp_id)
    if state is not None:
        return None if state else trail[trail.index(sp_id):] + [sp_id]
    done[sp_id] = False
    trail.append(sp_id)
    for producer in subscriptions[sp_id]:
        if subscriptions[producer]:
            cycle = _cycle_from(producer, subscriptions, done, trail)
            if cycle is not None:
                return cycle
    trail.pop()
    done[sp_id] = True
    return None


def check_structure(
    graph: QueryGraph,
) -> Tuple[List["Diagnostic"], List["Diagnostic"]]:
    """The one structure check: ``(errors, warnings)`` as coded diagnostics.

    Errors make the graph undeployable — :class:`~repro.coordinator.deployer.
    Deployment` construction raises on them and the static
    :func:`~repro.analysis.verifier.verify_plan` reports them, from this
    one body.  They come in stages, a later one only over a graph the
    earlier ones accept: a missing root or subquery plan (``SCSQ001``),
    subscriptions to unknown stream processes (``SCSQ002``), the first
    subscription cycle (``SCSQ003``).  A graph without errors gets a
    ``SCSQ004`` warning per stream process nobody consumes.
    """
    errors: List["Diagnostic"] = []
    if graph.root_plan is None:
        return [_found("SCSQ001", "query graph has no root plan")], []
    for sp in graph.sps.values():
        if sp.plan is None:
            errors.append(_found(
                "SCSQ001",
                f"stream process {sp.sp_id!r} has no compiled subquery plan", sp,
            ))
    if errors:
        return errors, []

    root_producers = graph.producers_of(graph.root_plan)
    consumed = set(root_producers)
    subscriptions: Dict[str, List[str]] = {}
    for sp in graph.sps.values():
        assert sp.plan is not None
        producers = subscriptions[sp.sp_id] = graph.producers_of(sp.plan)
        consumed.update(producers)
    if not consumed <= graph.sps.keys():
        for sp in graph.sps.values():
            for producer in subscriptions[sp.sp_id]:
                if producer not in graph.sps:
                    errors.append(_found(
                        "SCSQ002",
                        f"stream process {sp.sp_id!r} subscribes to unknown "
                        f"stream process {producer!r}", sp,
                    ))
        for producer in root_producers:
            if producer not in graph.sps:
                errors.append(_found(
                    "SCSQ002",
                    "the client manager's root plan subscribes to unknown "
                    f"stream process {producer!r}",
                ))
        return errors, []

    # Depth-first search over sp -> producer edges; a stream process that
    # subscribes to nothing is on no cycle and is never visited.
    done: Dict[str, bool] = {}  # False while on the current trail
    trail: List[str] = []
    for sp_id, producers in subscriptions.items():
        cycle = _cycle_from(sp_id, subscriptions, done, trail) if producers else None
        if cycle is not None:
            return [_found(
                "SCSQ003",
                "subscription cycle " + " -> ".join(cycle)
                + ": the streams can never end and the query deadlocks",
                graph.sps[cycle[0]],
            )], []

    if len(consumed) == len(graph.sps):  # every stream has a consumer
        return [], []
    return [], [
        _found(
            "SCSQ004",
            f"the output stream of {sp.sp_id!r} is never consumed "
            "(dangling stream process)", sp,
        )
        for sp in graph.sps.values()
        if sp.sp_id not in consumed
    ]
