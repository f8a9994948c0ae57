"""Cost-based automatic placement of stream processes.

This is the "query optimizer ... assigning an SP to a CPU" of the paper's
section 1, built on the measured knowledge the paper set out to collect:
instead of hard-coding rules (co-locate senders, spread psets), the placer
*searches* placements and scores each candidate with the analytic
predictors of :mod:`repro.optimizer.predict` — the same cost model the
simulator charges.  On the paper's workloads it rediscovers the hand-
derived topologies: the balanced node selection of Figure 7B for merging,
and Query 5's co-located-senders/spread-psets shape for inbound streaming.

Algorithm: greedy placement in topological order (producers first) with
one refinement pass (each SP re-placed with every other fixed), choosing
at each step the candidate node that maximizes the predicted bottleneck
bandwidth of the whole graph.  Candidates are deduplicated by state
signature so large clusters do not blow up the search.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.coordinator.allocation import AllocationSequence, constant_node_of
from repro.coordinator.graph import QueryGraph, SPDef
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import BACKEND, BLUEGENE, Environment
from repro.hardware.node import Node
from repro.optimizer.predict import (
    InboundShape,
    predict_inbound_bandwidth,
    predict_merge_bandwidth,
    predict_p2p_bandwidth,
)
from repro.util.errors import AllocationError


def _append_producers_first(
    sp_id: str, graph: QueryGraph, visited: Set[str], order: List[SPDef]
) -> None:
    """Append ``sp_id`` to ``order`` after every producer it subscribes to
    (a module function: a closure that calls itself is a reference cycle)."""
    if sp_id in visited:
        return
    visited.add(sp_id)
    sp = graph.sps[sp_id]
    if sp.plan is not None:
        for leaf in sp.plan.input_leaves():
            producer = leaf.producer
            if producer in graph.sps:
                _append_producers_first(producer, graph, visited, order)  # type: ignore[arg-type]
    order.append(sp)


class CostBasedPlacer:
    """Places unallocated stream processes by predicted bandwidth."""

    def __init__(self, env: Environment, settings: Optional[ExecutionSettings] = None):
        self.env = env
        self.settings = settings or ExecutionSettings()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def place(self, graph: QueryGraph) -> Dict[str, int]:
        """Choose nodes for every SP without an allocation sequence.

        Returns the chosen ``sp_id -> node index`` mapping and pins each
        placed SP with a constant allocation sequence, so the coordinators
        deploy exactly the optimized placement.  SPs that already carry an
        allocation sequence are respected (the user's explicit topology
        wins, as in the paper).
        """
        order = self._topological_order(graph)
        placeable = [sp for sp in order if sp.allocation is None]
        assignment: Dict[str, int] = {}
        # Pass 1: greedy in topological order.
        for sp in placeable:
            assignment[sp.sp_id] = self._best_node(graph, sp, assignment)
        # Pass 2: refine each choice with the rest fixed.
        for sp in placeable:
            del assignment[sp.sp_id]
            assignment[sp.sp_id] = self._best_node(graph, sp, assignment)
        for sp in placeable:
            sp.allocation = AllocationSequence(assignment[sp.sp_id])
        return assignment

    def predicted_bandwidth(
        self,
        graph: QueryGraph,
        assignment: Dict[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> float:
        """The objective: predicted bottleneck bandwidth (bytes/s).

        ``measured_costs`` optionally calibrates the analytic bounds with
        live measurements (see :meth:`replace_one`).
        """
        return self._objective(graph, assignment, measured_costs)

    def replace_one(
        self,
        graph: QueryGraph,
        sp_id: str,
        fixed_assignment: Mapping[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> Tuple[int, float]:
        """Score re-placing one SP with every other placement held fixed.

        This is the incremental query the adaptive runtime asks while a
        deployment is live: *if I could move only ``sp_id``, where would it
        go and how good would the plan be?*  ``fixed_assignment`` maps every
        other SP (and optionally ``sp_id`` itself — its entry is ignored) to
        its current node index; candidates come from the **live** CNDB, so
        nodes occupied by running RPs — including the victim's own node —
        are naturally excluded and the answer is always a genuine move.

        ``measured_costs`` maps a bound family (``"inbound"`` for the
        be->bg funnel, ``"torus"`` for intra-BlueGene transfers) to a
        measured/predicted calibration factor; each analytic bound is
        multiplied by its family's factor before the min is taken, so live
        throughput measurements correct the cost model where the simulation
        (or reality) disagrees with it.

        Returns ``(best_node_index, calibrated_predicted_bandwidth)``;
        raises :class:`~repro.util.errors.AllocationError` when the victim
        is unknown or no candidate node exists.
        """
        sp = graph.sps.get(sp_id)
        if sp is None:
            raise AllocationError(f"unknown stream process {sp_id!r}")
        assignment: Dict[str, int] = dict(fixed_assignment)
        assignment.pop(sp_id, None)
        best_index: Optional[int] = None
        best_score = -1.0
        for candidate in self._candidates(sp.cluster, sp_id, graph, assignment):
            assignment[sp_id] = candidate
            score = self._objective(graph, assignment, measured_costs)
            del assignment[sp_id]
            if score > best_score:
                best_score = score
                best_index = candidate
        if best_index is None:
            raise AllocationError(
                f"no candidate node in cluster {sp.cluster!r} for {sp_id!r}"
            )
        return best_index, best_score

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _best_node(self, graph: QueryGraph, sp: SPDef, assignment: Dict[str, int]) -> int:
        best_index: Optional[int] = None
        best_score = -1.0
        for candidate in self._candidates(sp.cluster, sp.sp_id, graph, assignment):
            assignment[sp.sp_id] = candidate
            score = self._objective(graph, assignment)
            del assignment[sp.sp_id]
            if score > best_score:
                best_score = score
                best_index = candidate
        if best_index is None:
            raise AllocationError(
                f"no candidate node in cluster {sp.cluster!r} for {sp.sp_id!r}"
            )
        return best_index

    def _candidates(
        self, cluster: str, sp_id: str, graph: QueryGraph, assignment: Dict[str, int]
    ) -> List[int]:
        """Available nodes, deduplicated by placement-relevant signature.

        Two free nodes are interchangeable when they sit in the same pset,
        carry the same load, and — on the BlueGene, where the torus
        position matters — have the same hop-distance profile to every
        already-placed BlueGene RP.
        """
        cndb = self.env.cndb(cluster)
        used: Dict[int, int] = {}
        placed_bg: List[int] = []
        for other_id, index in assignment.items():
            if graph.sps[other_id].cluster == cluster:
                used[index] = used.get(index, 0) + 1
            if graph.sps[other_id].cluster == BLUEGENE:
                placed_bg.append(index)
        seen: Set[Tuple] = set()
        candidates: List[int] = []
        for node in cndb.all_nodes():
            pending = used.get(node.index, 0)
            if not node.can_host(pending):
                continue
            occupancy = pending + node.running_processes
            if cluster == BLUEGENE:
                distances = tuple(
                    self.env.torus.hop_count(node.index, other) for other in placed_bg
                )
            else:
                distances = ()
            signature = (node.pset_id, occupancy, distances)
            if signature in seen:
                continue
            seen.add(signature)
            candidates.append(node.index)
        return candidates

    @staticmethod
    def _topological_order(graph: QueryGraph) -> List[SPDef]:
        """Producers before consumers (subscription edges form a DAG)."""
        order: List[SPDef] = []
        visited: Set[str] = set()
        for sp_id in graph.sps:
            _append_producers_first(sp_id, graph, visited, order)
        return order

    # ------------------------------------------------------------------
    # Objective
    # ------------------------------------------------------------------
    #: Plan roots whose output is a single object (or a trickle): their
    #: outgoing edges carry negligible volume and do not constrain
    #: placement.  This is the optimizer's cardinality estimate.
    _LOW_VOLUME_ROOTS = frozenset(["count", "sum", "avg", "maxagg", "minagg", "constant"])

    def _is_bulk_producer(self, graph: QueryGraph, sp_id: str) -> bool:
        sp = graph.sps.get(sp_id)
        if sp is None or sp.plan is None:
            return True  # unknown: be conservative
        return sp.plan.name not in self._LOW_VOLUME_ROOTS

    def _node_of(self, graph: QueryGraph, sp_id: str, assignment: Dict[str, int]) -> Optional[Node]:
        sp = graph.sps.get(sp_id)
        if sp is None:
            return None
        if sp_id in assignment:
            return self.env.node(sp.cluster, assignment[sp_id])
        pinned = constant_node_of(sp.allocation)
        if pinned is not None:
            return self.env.node(sp.cluster, pinned)
        return None

    @staticmethod
    def _calibrated(
        family: str, value: float, measured_costs: Optional[Mapping[str, float]]
    ) -> float:
        """Apply a bound family's measured/predicted correction factor."""
        if not measured_costs:
            return value
        return value * float(measured_costs.get(family, 1.0))

    def predicted_bounds(
        self, graph: QueryGraph, assignment: Dict[str, int]
    ) -> Dict[str, float]:
        """Uncalibrated analytic bounds, keyed by bound family.

        The tightest bound per family (``"inbound"``, ``"torus"``), in
        bytes/s — what the adaptive runtime divides live measurements by to
        learn its measured/predicted calibration factors.  Families without
        a constraining edge in this placement are absent.
        """
        out: Dict[str, float] = {}
        for family, value in self._labeled_bounds(graph, assignment):
            if value < out.get(family, float("inf")):
                out[family] = value
        return out

    def _objective(
        self,
        graph: QueryGraph,
        assignment: Dict[str, int],
        measured_costs: Optional[Mapping[str, float]] = None,
    ) -> float:
        """Predicted bottleneck bandwidth over all placed stream edges."""
        bounds = [
            self._calibrated(family, value, measured_costs)
            for family, value in self._labeled_bounds(graph, assignment)
        ]
        if not bounds:
            return float("inf")
        return min(bounds)

    def _labeled_bounds(
        self, graph: QueryGraph, assignment: Dict[str, int]
    ) -> List[Tuple[str, float]]:
        """Every analytic bound with its family label, in graph order."""
        params = self.env.params
        bounds: List[Tuple[str, float]] = []
        # Inbound (be -> bg) edges are pooled into one global shape.
        inbound_streams = 0
        inbound_hosts: Set[int] = set()
        inbound_ios: Set[int] = set()
        inbound_receivers: Set[int] = set()
        for sp in graph.sps.values():
            consumer = self._node_of(graph, sp.sp_id, assignment)
            if consumer is None or sp.plan is None:
                continue
            producers: List[Node] = []
            for leaf in sp.plan.input_leaves():
                if not self._is_bulk_producer(graph, leaf.producer):  # type: ignore[arg-type]
                    continue  # an aggregate's output is one object, not a stream
                producer = self._node_of(graph, leaf.producer, assignment)  # type: ignore[arg-type]
                if producer is not None:
                    producers.append(producer)
            if not producers:
                continue
            if consumer.cluster == BLUEGENE:
                be_producers = [p for p in producers if p.cluster == BACKEND]
                bg_producers = [p for p in producers if p.cluster == BLUEGENE]
                if be_producers:
                    inbound_streams += len(be_producers)
                    inbound_hosts.update(p.index for p in be_producers)
                    inbound_ios.add(self.env.bluegene.pset_of(consumer.index))
                    inbound_receivers.add(consumer.index)
                if bg_producers:
                    bounds.append((
                        "torus",
                        self._intra_bg_bound(consumer, bg_producers, assignment, graph),
                    ))
        if inbound_streams:
            shape = InboundShape(
                streams=inbound_streams,
                hosts=len(inbound_hosts),
                io_nodes=len(inbound_ios),
                receivers=len(inbound_receivers),
            )
            bounds.append(("inbound", predict_inbound_bandwidth(params, shape)))
        return bounds

    def _intra_bg_bound(
        self,
        consumer: Node,
        producers: List[Node],
        assignment: Dict[str, int],
        graph: QueryGraph,
    ) -> float:
        """Predicted bandwidth into one BlueGene consumer."""
        params = self.env.params
        buffer_bytes = self.settings.mpi_buffer_bytes
        busy = False
        max_hops = 1
        for producer in producers:
            if producer.index == consumer.index:
                continue
            route = self.env.torus.route(producer.index, consumer.index)
            max_hops = max(max_hops, len(route) - 1)
            if self._route_is_busy(
                route, assignment, graph, exclude=(producer.index, consumer.index)
            ):
                busy = True
        if len(producers) == 1:
            if busy:
                return predict_merge_bandwidth(
                    params, buffer_bytes, self.settings.double_buffering,
                    streams=1, through_busy_intermediate=True, max_hops=max_hops,
                )
            return predict_p2p_bandwidth(
                params, buffer_bytes, self.settings.double_buffering, hops=max_hops
            )
        return predict_merge_bandwidth(
            params,
            buffer_bytes,
            self.settings.double_buffering,
            streams=len(producers),
            through_busy_intermediate=busy,
            max_hops=max_hops,
        )

    def _route_is_busy(
        self,
        route: List[int],
        assignment: Dict[str, int],
        graph: QueryGraph,
        exclude: Tuple[int, int],
    ) -> bool:
        """True if an intermediate hop hosts another placed BlueGene RP."""
        occupied = {
            index
            for sp_id, index in assignment.items()
            if graph.sps[sp_id].cluster == BLUEGENE
        }
        for sp in graph.sps.values():
            if sp.cluster == BLUEGENE:
                pinned = constant_node_of(sp.allocation)
                if pinned is not None:
                    occupied.add(pinned)
        return any(
            hop in occupied and hop not in exclude for hop in route[1:-1]
        )
