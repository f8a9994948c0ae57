"""Process graphs: the compiled, placement-annotated form of a query.

The SCSQL compiler reduces a continuous query to a :class:`QueryGraph` —
the set of stream-process definitions (subquery plan + target cluster +
optional allocation sequence) plus the root plan the client manager itself
interprets.  The client manager turns the graph into running processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.coordinator.allocation import AllocationDirective
from repro.engine.sqep import OpSpec
from repro.util.errors import QuerySemanticError
from repro.util.source import Span


@dataclass
class SPDef:
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

    sp_id: str
    cluster: str
    plan: Optional[OpSpec] = None
    allocation: Optional[AllocationDirective] = None
    span: Optional[Span] = None


@dataclass
class QueryGraph:
    """A full continuous query ready for deployment."""

    sps: Dict[str, SPDef] = field(default_factory=dict)
    root_plan: Optional[OpSpec] = None

    def add(self, sp: SPDef) -> None:
        if sp.sp_id in self.sps:
            raise QuerySemanticError(f"duplicate stream process id {sp.sp_id!r}")
        self.sps[sp.sp_id] = sp

    def validate(self) -> None:
        """Check referential integrity: every subscription has a producer."""
        if self.root_plan is None:
            raise QuerySemanticError("query graph has no root plan")
        for sp in self.sps.values():
            if sp.plan is None:
                raise QuerySemanticError(
                    f"stream process {sp.sp_id!r} has no compiled subquery plan"
                )
        plans = [self.root_plan] + [sp.plan for sp in self.sps.values()]
        for plan in plans:
            for leaf in plan.input_leaves():
                if leaf.producer not in self.sps:
                    raise QuerySemanticError(
                        f"plan subscribes to unknown stream process {leaf.producer!r}"
                    )

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
