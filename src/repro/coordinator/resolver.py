"""The placement resolver: the one allocation walk.

The paper defines node placement in two sentences (section 2.4): "the node
selection algorithm will choose the first available node in the allocation
sequence ... In case the stream contains no available node, the query will
fail."  :func:`resolve_placement` is the only code that carries that out:
:class:`~repro.coordinator.deployer.Deployment` construction runs it on the
live environment, the static :func:`~repro.analysis.verifier.verify_plan`
on the same CNDBs between a topology ``snapshot()`` and ``restore()`` —
"the verifier accepts" and "the deployment succeeds" are one computation
on one state.  The walk is atomic: it leaves either one acquired slot per
stream process, or coded diagnostics and the environment exactly as it
found it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.coordinator.allocation import (
    AllocationSequence,
    AllocationSpec,
    ExplicitNodesSpec,
    InPsetSpec,
    NodeSelector,
    PsetRoundRobinSpec,
)
from repro.coordinator.graph import QueryGraph, SPDef
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.node import Node
from repro.util.errors import AllocationError, HardwareError, PlanVerificationError
from repro.util.record import Record

if TYPE_CHECKING:
    from repro.analysis.diagnostics import Diagnostic

#: The diagnostic of an allocation spec that does not resolve, by spec type.
_UNRESOLVABLE = {InPsetSpec: "SCSQ105", PsetRoundRobinSpec: "SCSQ106"}

#: Diagnostics that mean "no node is available" — the paper's "the query
#: will fail" (:class:`AllocationError`).  Every other placement code says
#: the plan names something the topology does not have.
_NO_AVAILABLE_NODE = frozenset(
    ["SCSQ103", "SCSQ104", "SCSQ107", "SCSQ108", "SCSQ201"]
)


class Assignment(Record):
    """One placement walk's result: ``nodes`` maps stream process id to its
    node in graph order — each holding one acquired slot after a successful
    walk, none after a failed one — and ``cursors`` maps cluster to its CNDB
    round-robin cursor *before* the walk."""

    __slots__ = ("nodes", "cursors")

    def __init__(self, nodes: Dict[str, Node], cursors: Dict[str, int]) -> None:
        self.nodes = nodes
        self.cursors = cursors

    def release(self) -> None:
        """Return every slot the walk acquired."""
        for node in self.nodes.values():
            node.release()

    def rewind(self, cndbs: Any) -> None:
        """Put the round-robin cursors back where the walk found them."""
        for cluster, cursor in self.cursors.items():
            cndbs.cndb(cluster)._rr_cursor = cursor


def resolve_placement(
    graph: QueryGraph, cndbs: Any, selector: NodeSelector
) -> Tuple[Assignment, List["Diagnostic"]]:
    """Choose and acquire a node for every stream process of ``graph``.

    ``cndbs`` is anything with ``cndb(cluster)`` and ``cluster_names()`` —
    an :class:`~repro.hardware.environment.EnvironmentTemplate`, or an
    environment, which delegates both to its template.  Each
    :class:`~repro.coordinator.allocation.AllocationSpec` *instance*
    resolves once (the members of one ``spv()`` share one stateful
    sequence); the stream processes are then walked in graph order, each
    selecting through its allocation sequence, its pinned node, or — when
    unconstrained — ``selector``, and acquiring what it selected so later
    selections see it.  ``graph`` is not modified.

    Returns ``(assignment, diagnostics)``.  With no diagnostics the
    assignment holds the acquired slots and the cursors have advanced; with
    any (``SCSQ101``–``108``/``201``, one per failing stream process),
    everything acquired was released and the cursors rewound.
    """
    assignment = Assignment(
        {}, {name: cndbs.cndb(name)._rr_cursor for name in cndbs.cluster_names()}
    )
    diagnostics: List["Diagnostic"] = []

    def fail(code: str, sp: SPDef, message: str) -> None:
        from repro.analysis.diagnostics import diagnostic  # import cycle

        diagnostics.append(diagnostic(code, message, sp_id=sp.sp_id, span=sp.span))

    sequences: Dict[int, AllocationSequence] = {}
    for sp in graph.sps.values():
        spec = sp.allocation
        if isinstance(spec, AllocationSpec) and id(spec) not in sequences:
            try:
                sequences[id(spec)] = spec.resolve(cndbs)
            except HardwareError as exc:
                fail(_UNRESOLVABLE.get(type(spec), "SCSQ101"), sp, str(exc))
    if not diagnostics:
        for sp in graph.sps.values():
            try:
                cndb = cndbs.cndb(sp.cluster)
            except HardwareError as exc:
                fail("SCSQ101", sp, str(exc))
                continue
            directive = sp.allocation
            if isinstance(directive, AllocationSpec):
                directive = sequences[id(directive)]
            node = _select(sp, directive, cndb, selector, assignment.nodes, fail)
            if node is not None:
                node.acquire()
                assignment.nodes[sp.sp_id] = node
    if diagnostics:
        assignment.release()
        assignment.rewind(cndbs)
    return assignment, diagnostics


def _select(
    sp: SPDef,
    sequence: Optional[AllocationSequence],
    cndb: ComputeNodeDatabase,
    selector: NodeSelector,
    placed: Dict[str, Node],
    fail: Callable[[str, SPDef, str], None],
) -> Optional[Node]:
    """The node for one stream process, or None after reporting why not."""
    if sequence is None:
        try:
            return selector.select(cndb)
        except (AllocationError, HardwareError) as exc:
            fail("SCSQ107", sp, str(exc))
            return None
    # Explicitly named nodes must all exist, wherever the walk would stop.
    pinned = sequence.constant_node
    named: Sequence[int] = () if pinned is None else (pinned,)
    if isinstance(sp.allocation, ExplicitNodesSpec):
        named = sp.allocation.nodes
    known = {node.index: node for node in cndb.all_nodes()} if named else {}
    missing = [index for index in named if index not in known]
    for index in missing:
        fail(
            "SCSQ102", sp,
            f"stream process {sp.sp_id!r} explicitly selects node {index} "
            f"of cluster {cndb.cluster!r}, which does not exist "
            f"(cluster has nodes 0..{cndb.num_nodes() - 1})",
        )
    if missing:
        return None
    if pinned is None:
        try:
            return sequence.select(cndb)
        except AllocationError as exc:
            if isinstance(exc.__cause__, HardwareError):  # a CNDB lookup miss
                fail("SCSQ102", sp, str(exc))
            else:
                fail("SCSQ104", sp,
                     f"allocation sequence of {sp.sp_id!r} is exhausted: {exc}")
            return None
    # A pinned node that cannot host: dead, over-subscribed by this very
    # plan, or held by somebody else?
    node = known[pinned]
    if node.is_available:
        return node
    if node.failed:
        fail("SCSQ108", sp,
             f"node {node.node_id} selected by {sp.sp_id!r} has failed and "
             "hosts no further process")
    elif any(other is node for other in placed.values()):
        fail(
            "SCSQ103", sp,
            f"node {node.node_id} is over-subscribed: {sp.sp_id!r} selects "
            "it explicitly but this plan already placed a stream process "
            "there, and the node accepts a single process",
        )
    else:
        fail("SCSQ201", sp,
             f"node {node.node_id} selected by {sp.sp_id!r} is already allocated")
    return None


def placement_failure(diagnostics: Sequence["Diagnostic"]) -> Exception:
    """The exception a deployment raises for a failed structure check or
    placement walk: :class:`~repro.util.errors.AllocationError` when every
    finding is a busy node or an exhausted sequence, otherwise
    :class:`~repro.util.errors.PlanVerificationError` (the graph is
    malformed, or the plan names a node, pset or cluster the environment
    lacks).  Either carries the diagnostics, source spans included."""
    message = "; ".join(found.message for found in diagnostics)
    if all(found.code in _NO_AVAILABLE_NODE for found in diagnostics):
        return AllocationError(message, diagnostics)
    return PlanVerificationError(message, diagnostics)
