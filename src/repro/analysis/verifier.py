"""Static verification of deployment plans.

A :class:`PlanVerifier` proves — without running a simulation — that a
compiled :class:`~repro.scsql.plan.DeploymentPlan` can deploy onto a given
environment, and warns about placements the cost model can already show to
be link-bound.  It runs a pass pipeline over the plan's process graph and a
CNDB snapshot:

1. **Structure** (``SCSQ00x``): missing plans, subscriptions to unknown
   stream processes, cycles in the subscription graph, dangling streams —
   the deployer's own check
   (:func:`~repro.coordinator.graph.check_structure`).
2. **Placement** (``SCSQ1xx``/``SCSQ201``): the deployer's own
   placement walk (:func:`~repro.coordinator.resolver.resolve_placement`)
   run against a private
   :class:`~repro.analysis.snapshot.EnvironmentSnapshot`.  Every failure
   of either pass comes back as a coded diagnostic, and since deployment
   runs the same two functions, *the verifier reports an error exactly
   when the deployment raises, with the same codes*, on an environment in
   the snapshot's state.
3. **Locality** (``SCSQ301``): pinned stream processes whose intra-
   BlueGene streams cross pset boundaries.
4. **Capacity** (``SCSQ4xx``): inbound (back-end -> BlueGene) connection
   fan-in that the calibrated cost model proves link-bound — e.g. the
   shared io-proxy funnel behind the paper's Figure 15 Query 5 dip.

Use :func:`verify_plan` for the one-shot form, or
``Deployer.verify(plan)`` to check against a live environment (which also
detects double allocation across concurrently deployed plans).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.diagnostics import AnalysisReport, diagnostic
from repro.analysis.snapshot import EnvironmentSnapshot
import dataclasses

from repro.coordinator.allocation import (
    InPsetSpec,
    NaiveSelector,
    NodeSelector,
    constant_node_of,
)
from repro.coordinator.graph import QueryGraph, SPDef, check_structure
from repro.coordinator.resolver import resolve_placement
from repro.hardware.environment import BACKEND, BLUEGENE, FRONTEND
from repro.hardware.node import Node
from repro.util.errors import HardwareError
from repro.util.units import MEGA

__all__ = ["PlanVerifier", "verify_plan"]


def _graph_of(plan: Any) -> QueryGraph:
    """Accept a DeploymentPlan, PlacedPlan, or bare QueryGraph."""
    graph = getattr(plan, "graph", plan)
    if not isinstance(graph, QueryGraph):
        raise TypeError(f"cannot verify {plan!r}: no query graph found")
    return graph


class PlanVerifier:
    """Verifies plans against one (mutable, private) environment snapshot.

    Verifying a plan acquires its nodes *in the snapshot*, so verifying
    several plans through one verifier checks them as concurrent
    deployments: a node taken by an earlier plan surfaces as ``SCSQ201``
    for a later one.  Use a fresh verifier (or :func:`verify_plan`) for
    independent checks.
    """

    def __init__(self, snapshot: Optional[EnvironmentSnapshot] = None) -> None:
        self.snapshot = snapshot or EnvironmentSnapshot.from_config()
        #: node_id -> sp label, for nodes acquired by earlier verified plans.
        self._owners: Dict[str, str] = {
            node_id: "a pre-existing deployment"
            for node_id in self.snapshot.busy_nodes()
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def verify(
        self,
        plan: Any,
        label: str = "query",
        selector: Optional[NodeSelector] = None,
    ) -> AnalysisReport:
        """Run every pass over one plan; returns the full report.

        ``selector`` is the node-selection algorithm the deployment will
        use for unconstrained stream processes (default: naive).
        """
        report = AnalysisReport(label=label)
        graph = _graph_of(plan)
        errors, warnings = check_structure(graph)
        report.diagnostics.extend(errors + warnings)
        if errors:
            return report  # placement over a broken graph compounds noise
        placements = self._place_on_snapshot(graph, report, label, selector)
        self._check_locality(graph, report, placements)
        self._check_capacity(graph, report, placements)
        return report

    # ------------------------------------------------------------------
    # Pass 2: the placement walk, on the snapshot (SCSQ1xx, SCSQ201)
    # ------------------------------------------------------------------
    def _place_on_snapshot(
        self,
        graph: QueryGraph,
        report: AnalysisReport,
        label: str,
        selector: Optional[NodeSelector] = None,
    ) -> Dict[str, Node]:
        assignment, diagnostics = resolve_placement(
            graph, self.snapshot, selector or NaiveSelector()
        )
        for found in diagnostics:
            if found.code == "SCSQ201":  # name the plan holding the node
                assert found.sp_id is not None
                sp = graph.sps[found.sp_id]
                holder = f"{sp.cluster}:{constant_node_of(sp.allocation)}"
                owner = self._owners.get(holder, "another deployment")
                found = dataclasses.replace(found, message=f"{found.message} by {owner}")
            report.add(found)
        if not diagnostics:
            for sp_id, node in assignment.nodes.items():
                self._owners.setdefault(node.node_id, f"{label}:{sp_id}")
            # The client manager's own collector RP lands on fe:0 (Linux,
            # unbounded) — a later plan's selector sees it there.
            self.snapshot.node(FRONTEND, 0).acquire()
        return assignment.nodes

    # ------------------------------------------------------------------
    # Pass 3: pset locality (SCSQ301)
    # ------------------------------------------------------------------
    def _pinned_pset(self, sp: SPDef) -> Optional[int]:
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
            return self.snapshot.node(BLUEGENE, constant).pset_id
        except HardwareError:
            return None

    def _check_locality(
        self, graph: QueryGraph, report: AnalysisReport, placements: Dict[str, Node]
    ) -> None:
        for sp in graph.sps.values():
            consumer_pset = self._pinned_pset(sp)
            if consumer_pset is None:
                continue
            assert sp.plan is not None
            for producer_id in graph.producers_of(sp.plan):
                producer = graph.sps.get(producer_id)
                if producer is None:
                    continue
                producer_pset = self._pinned_pset(producer)
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

    # ------------------------------------------------------------------
    # Pass 4: cost-model capacity bounds (SCSQ40x)
    # ------------------------------------------------------------------
    def _check_capacity(
        self, graph: QueryGraph, report: AnalysisReport, placements: Dict[str, Node]
    ) -> None:
        """Prove inbound fan-in link-bound from the calibrated cost model.

        Uses the placements the resolver just computed (what the deployer
        will compute), so unconstrained stream processes participate too.
        """
        io = self.snapshot.params.io_node
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


def verify_plan(
    plan: Any,
    env: Any = None,
    config: Any = None,
    label: str = "query",
    selector: Optional[NodeSelector] = None,
) -> AnalysisReport:
    """Verify one plan against a fresh snapshot (one-shot convenience).

    Args:
        plan: A :class:`~repro.scsql.plan.DeploymentPlan`,
            :class:`~repro.coordinator.deployer.PlacedPlan`, or bare
            :class:`~repro.coordinator.graph.QueryGraph`.
        env: Live environment to snapshot (detects cross-plan conflicts);
            mutually exclusive with ``config``.
        config: Topology to verify against when no environment exists
            (default: the paper's).
        label: Name used in the report and error messages.
        selector: Node selector the deployment will use (default naive).
    """
    if env is not None:
        snapshot = EnvironmentSnapshot.from_environment(env)
    else:
        snapshot = EnvironmentSnapshot.from_config(config)
    return PlanVerifier(snapshot).verify(plan, label=label, selector=selector)
