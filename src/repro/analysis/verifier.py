"""Static verification of deployment plans.

:func:`verify_plan` proves — without running a simulation — that a compiled
:class:`~repro.scsql.plan.DeploymentPlan` can deploy onto a given
environment, and warns about placements the cost model can already show to
be link-bound.  It runs a pass pipeline over the plan's process graph:

1. **Structure** (``SCSQ00x``): missing plans, subscriptions to unknown
   stream processes, cycles in the subscription graph, dangling streams —
   the deployer's own check
   (:func:`~repro.coordinator.graph.check_structure`).
2. **Placement** (``SCSQ1xx``/``SCSQ201``): the deployer's own
   placement walk (:func:`~repro.coordinator.resolver.resolve_placement`)
   run on the environment's own CNDBs, between a
   :meth:`~repro.hardware.environment.EnvironmentTemplate.snapshot` and a
   :meth:`~repro.hardware.environment.EnvironmentTemplate.restore`.  Every
   failure of either pass comes back as a coded diagnostic, and since
   deployment runs the same two functions on the same state, *the verifier
   reports an error exactly when the deployment raises, with the same
   codes*.
3. **Locality** (``SCSQ301``): pinned stream processes whose intra-
   BlueGene streams cross pset boundaries.
4. **Capacity** (``SCSQ4xx``): inbound (back-end -> BlueGene) connection
   fan-in that the calibrated cost model proves link-bound — e.g. the
   shared io-proxy funnel behind the paper's Figure 15 Query 5 dip.

``Deployer.verify(plan)`` checks against a live environment, so nodes held
by its other deployments surface as cross-plan double allocation
(``SCSQ201``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, diagnostic
from repro.coordinator.allocation import (
    InPsetSpec,
    NaiveSelector,
    NodeSelector,
    constant_node_of,
)
from repro.coordinator.graph import QueryGraph, SPDef, check_structure
from repro.coordinator.resolver import resolve_placement
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.environment import (
    BACKEND,
    BLUEGENE,
    EnvironmentConfig,
    shared_template,
)
from repro.hardware.node import Node
from repro.net.params import IONodeParams
from repro.util.errors import HardwareError
from repro.util.units import MEGA

__all__ = ["verify_plan"]


def _graph_of(plan: Any) -> QueryGraph:
    """Accept a DeploymentPlan, PlacedPlan, or bare QueryGraph."""
    graph = getattr(plan, "graph", plan)
    if not isinstance(graph, QueryGraph):
        raise TypeError(f"cannot verify {plan!r}: no query graph found")
    return graph


def verify_plan(
    plan: Any,
    env: Any = None,
    config: Any = None,
    label: str = "query",
    selector: Optional[NodeSelector] = None,
) -> AnalysisReport:
    """Run every pass over one plan; returns the full report.

    The placement walk acquires nodes and advances cursors in the real
    topology and is undone by restoring a snapshot taken before it, so
    neither ``env`` nor a live fork of the ``config`` template sees it.

    Args:
        plan: A :class:`~repro.scsql.plan.DeploymentPlan`,
            :class:`~repro.coordinator.deployer.PlacedPlan`, or bare
            :class:`~repro.coordinator.graph.QueryGraph`.
        env: Live environment to verify against, in its current state
            (detects cross-plan conflicts); mutually exclusive with
            ``config``.
        config: Topology to verify against, freshly built, when no
            environment exists (default: the paper's).
        label: Name used in the report and error messages.
        selector: Node selector the deployment will use (default naive).
    """
    report = AnalysisReport(label=label)
    graph = _graph_of(plan)
    errors, warnings = check_structure(graph)
    report.diagnostics.extend(errors + warnings)
    if errors:
        return report  # placement over a broken graph compounds noise
    if env is not None:
        template = env.template
    else:
        template = shared_template(config or EnvironmentConfig())
    saved = template.snapshot()
    try:
        if env is None:
            template.reset()
        assignment, diagnostics = resolve_placement(
            graph, template, selector or NaiveSelector()
        )
    finally:
        template.restore(saved)
    for found in diagnostics:
        if found.code == "SCSQ201":  # the node was held before the walk
            found = found.replace(message=f"{found.message} by a pre-existing deployment")
        report.add(found)
    _check_locality(graph, report, template.cndb(BLUEGENE))
    _check_capacity(graph, report, assignment.nodes, template.config.params.io_node)
    return report


# ----------------------------------------------------------------------
# Pass 3: pset locality (SCSQ301)
# ----------------------------------------------------------------------
def _pinned_pset(sp: SPDef, bluegene: ComputeNodeDatabase) -> Optional[int]:
    """The pset a *pinned* bg stream process is constrained to, if any."""
    if sp.cluster != BLUEGENE:
        return None
    allocation = sp.allocation
    if isinstance(allocation, InPsetSpec):
        return allocation.pset_id
    constant = constant_node_of(allocation)
    if constant is None:
        return None
    try:
        return bluegene.node(constant).pset_id
    except HardwareError:
        return None


def _check_locality(
    graph: QueryGraph, report: AnalysisReport, bluegene: ComputeNodeDatabase
) -> None:
    for sp in graph.sps.values():
        consumer_pset = _pinned_pset(sp, bluegene)
        if consumer_pset is None:
            continue
        assert sp.plan is not None
        for producer_id in graph.producers_of(sp.plan):
            producer = graph.sps.get(producer_id)
            if producer is None:
                continue
            producer_pset = _pinned_pset(producer, bluegene)
            if producer_pset is None or producer_pset == consumer_pset:
                continue
            report.add(
                diagnostic(
                    "SCSQ301",
                    f"stream process {sp.sp_id!r} is pinned to pset "
                    f"{consumer_pset} but consumes {producer_id!r} pinned to "
                    f"pset {producer_pset}; the stream crosses pset "
                    "boundaries (longer torus routes, no shared I/O node)",
                    sp_id=sp.sp_id,
                    span=sp.span,
                )
            )


# ----------------------------------------------------------------------
# Pass 4: cost-model capacity bounds (SCSQ40x)
# ----------------------------------------------------------------------
def _check_capacity(
    graph: QueryGraph,
    report: AnalysisReport,
    placements: Dict[str, Node],
    io: IONodeParams,
) -> None:
    """Prove inbound fan-in link-bound from the calibrated cost model.

    Uses the placements the resolver just computed (what the deployer
    will compute), so unconstrained stream processes participate too.
    """
    # Inbound edges: a be producer feeding a bg consumer over TCP.
    inbound: List[Tuple[str, str]] = []  # (producer, consumer)
    for sp in graph.sps.values():
        if sp.cluster != BLUEGENE or sp.sp_id not in placements:
            continue
        assert sp.plan is not None
        for producer_id in graph.producers_of(sp.plan):
            producer = graph.sps.get(producer_id)
            if producer is not None and producer.cluster == BACKEND:
                inbound.append((producer_id, sp.sp_id))
    if not inbound:
        return
    # SCSQ401: connections sharing one I/O-node proxy.
    per_pset: Dict[int, List[Tuple[str, str]]] = {}
    for producer_id, consumer_id in inbound:
        pset = placements[consumer_id].pset_id
        if pset is not None:
            per_pset.setdefault(pset, []).append((producer_id, consumer_id))
    for pset in sorted(per_pset):
        edges = per_pset[pset]
        connections = len(edges)
        if connections < 2:
            continue
        bound = io.proxy_rate / (1.0 + io.connection_sharing_penalty * (connections - 1))
        consumers = sorted({consumer for _, consumer in edges})
        first = graph.sps[consumers[0]]
        report.add(
            diagnostic(
                "SCSQ401",
                f"{connections} inbound connections share the I/O-node proxy "
                f"of pset {pset} (consumers: {', '.join(consumers)}); the "
                "cost model bounds their aggregate bandwidth at "
                f"{bound * 8.0 / MEGA:.0f} Mbps — spread receivers over "
                "psets (psetrr()) to engage more I/O nodes",
                sp_id=first.sp_id,
                span=first.span,
            )
        )
    # SCSQ402 (info): several distinct back-end hosts share the ingress
    # uplink and pay the host-coordination penalty.
    hosts = sorted(
        {
            placements[producer_id].node_id
            for producer_id, _ in inbound
            if producer_id in placements
        }
    )
    if len(hosts) >= 2:
        factor = 1.0 / (1.0 + io.uplink_host_coordination * (len(hosts) - 1))
        report.add(
            diagnostic(
                "SCSQ402",
                f"{len(hosts)} back-end hosts ({', '.join(hosts)}) feed the "
                "BlueGene ingress concurrently; the shared-uplink "
                f"coordination penalty scales their rate by {factor:.2f}",
            )
        )
