"""Cluster coordinators.

"When the client manager identifies an SP, the sub-query of that SP is
registered with the coordinator of the cluster where the sub-query is to be
executed ... Then, the coordinator starts an RP to execute the sub-query"
(paper section 2.2).  One coordinator per cluster (feCC, beCC, bgCC) owns
the cluster's CNDB; node selection over those CNDBs is the one walk of
:mod:`repro.coordinator.resolver`.

The BlueGene peculiarity is preserved: compute nodes cannot accept
connections, so the bgCC "retrieves new sub-queries from the feCC by
polling"; registrations destined for the BlueGene transit the front-end
coordinator and pay a polling latency before the RP exists.
"""

from __future__ import annotations

from typing import Dict

from repro.hardware.environment import BLUEGENE, Environment
from repro.util.errors import AllocationError

#: Simulated delay of one bgCC poll of the feCC registration queue.
BG_POLL_INTERVAL = 1e-3


class ClusterCoordinator:
    """Registration point of one cluster, owner of its CNDB."""

    def __init__(self, env: Environment, cluster: str):
        self.cluster = cluster
        self.cndb = env.cndb(cluster)

    @property
    def registration_latency(self) -> float:
        """Simulated setup latency of registering one subquery here.

        Only the BlueGene pays a polling delay; direct coordinators accept
        registrations immediately.
        """
        return BG_POLL_INTERVAL if self.cluster == BLUEGENE else 0.0


class CoordinatorRegistry:
    """All cluster coordinators of one environment (feCC, beCC, bgCC)."""

    def __init__(self, env: Environment):
        self.env = env
        self.coordinators: Dict[str, ClusterCoordinator] = {
            name: ClusterCoordinator(env, name) for name in env.cluster_names()
        }

    def __getitem__(self, cluster: str) -> ClusterCoordinator:
        try:
            return self.coordinators[cluster]
        except KeyError:
            raise AllocationError(
                f"no coordinator for cluster {cluster!r}; "
                f"known clusters: {sorted(self.coordinators)}"
            ) from None
