"""Frozen environment state for static plan verification.

The verifier runs the deployer's placement resolver without a live
simulator.  :class:`EnvironmentSnapshot` gives it the piece of the
environment placement actually consults — the per-cluster CNDBs (node
status + round-robin cursors) plus the cost-model parameters — as private
copies, so verification can acquire nodes and consume allocation
sequences without disturbing anything real.

The snapshot offers what
:func:`~repro.coordinator.resolver.resolve_placement` asks of an
:class:`~repro.hardware.environment.Environment` (``cndb(cluster)`` and
``cluster_names()``), so the one placement walk runs against it unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.environment import Environment, EnvironmentConfig, EnvironmentTemplate
from repro.hardware.node import Node
from repro.net.params import NetworkParams
from repro.util.errors import HardwareError


class EnvironmentSnapshot:
    """A mutable private copy of placement-relevant environment state."""

    def __init__(
        self, cndbs: Dict[str, ComputeNodeDatabase], params: NetworkParams
    ) -> None:
        self.cndbs = cndbs
        self.params = params

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: Optional[EnvironmentConfig] = None) -> "EnvironmentSnapshot":
        """A snapshot of a *fresh* environment with the given topology.

        Builds the topology the way an environment does, minus simulator
        and networks: this is what ``python -m repro analyze`` uses, and
        what the verifier assumes when no live environment is supplied.
        """
        config = config or EnvironmentConfig()
        return cls(cndbs=EnvironmentTemplate(config).cndbs, params=config.params)

    @classmethod
    def from_environment(cls, env: Environment) -> "EnvironmentSnapshot":
        """A snapshot of a *live* environment's current placement state.

        Node occupancy carries over, so verifying a plan against an
        environment that already hosts deployments detects cross-plan
        double allocation (``SCSQ201``); round-robin cursors carry over,
        so selector placement is predicted exactly.
        """
        cndbs = {name: env.cndb(name).copy() for name in env.cluster_names()}
        return cls(cndbs=cndbs, params=env.params)

    # ------------------------------------------------------------------
    # What resolve_placement() asks of an environment
    # ------------------------------------------------------------------
    def cluster_names(self) -> Tuple[str, ...]:
        return tuple(self.cndbs)

    def cndb(self, cluster: str) -> ComputeNodeDatabase:
        try:
            return self.cndbs[cluster]
        except KeyError:
            raise HardwareError(
                f"unknown cluster {cluster!r}; expected one of {sorted(self.cndbs)}"
            ) from None

    def node(self, cluster: str, index: int) -> Node:
        return self.cndb(cluster).node(index)

    def busy_nodes(self) -> Dict[str, int]:
        """node_id -> running_processes for every currently busy node."""
        return {
            node.node_id: node.running_processes
            for cndb in self.cndbs.values()
            for node in cndb.all_nodes()
            if node.running_processes > 0
        }

    def __repr__(self) -> str:
        sizes = {name: cndb.num_nodes() for name, cndb in self.cndbs.items()}
        return f"<EnvironmentSnapshot {sizes}>"
