"""Coordination layer: deployer, cluster coordinators, node selection.

Implements the control plane of the paper's Figure 2: the client manager on
the front-end cluster (the :class:`Deployer`) registers subqueries with the
per-cluster coordinators (feCC, beCC, bgCC); one placement resolver selects
nodes from their CNDBs — honouring user-supplied allocation sequences —
and the deployment starts a running process on each.
"""

from repro.coordinator.allocation import (
    AllocationDirective,
    AllocationSequence,
    AllocationSpec,
    ExplicitNodesSpec,
    InPsetSpec,
    KnowledgeBasedSelector,
    NaiveSelector,
    NodeSelector,
    PsetRoundRobinSpec,
    UrrSpec,
    constant_node_of,
    in_pset_sequence,
    pset_round_robin_sequence,
    urr_sequence,
)
from repro.coordinator.coordinator import (
    BG_POLL_INTERVAL,
    ClusterCoordinator,
    CoordinatorRegistry,
)
from repro.coordinator.deployer import (
    ROOT_RP_ID,
    CostBasedPlacement,
    Deployer,
    Deployment,
    ExecutionReport,
    PlacedPlan,
    PlacementStrategy,
    SelectorPlacement,
)
from repro.coordinator.graph import QueryGraph, SPDef
from repro.coordinator.resolver import Assignment, placement_failure, resolve_placement

__all__ = [
    "AllocationDirective",
    "AllocationSequence",
    "AllocationSpec",
    "ExplicitNodesSpec",
    "UrrSpec",
    "InPsetSpec",
    "PsetRoundRobinSpec",
    "constant_node_of",
    "NodeSelector",
    "NaiveSelector",
    "KnowledgeBasedSelector",
    "urr_sequence",
    "in_pset_sequence",
    "pset_round_robin_sequence",
    "ExecutionReport",
    "ROOT_RP_ID",
    "ClusterCoordinator",
    "CoordinatorRegistry",
    "BG_POLL_INTERVAL",
    "Deployer",
    "Deployment",
    "PlacedPlan",
    "PlacementStrategy",
    "SelectorPlacement",
    "CostBasedPlacement",
    "Assignment",
    "resolve_placement",
    "placement_failure",
    "QueryGraph",
    "SPDef",
]
