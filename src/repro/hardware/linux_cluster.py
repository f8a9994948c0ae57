"""Linux cluster model: the front-end and back-end JS20 clusters.

The paper's front-end cluster hosts the client manager and post-processing;
the back-end cluster receives (simulated) sensor streams and injects them
into the BlueGene over switched Gigabit Ethernet.  The experiments used a
back-end cluster of **four** nodes (section 5: "we have only four I/O nodes
and four nodes in the back-end cluster").
"""

from __future__ import annotations

from typing import List

from repro.hardware.node import PPC970, Node, NodeCapabilities, NodeKind
from repro.util.errors import HardwareError
from repro.util.record import Frozen


class LinuxClusterConfig(Frozen):
    """Shape of a Linux cluster."""

    name: str
    num_nodes: int
    __slots__ = ("name", "num_nodes")

    def __init__(self, name: str, num_nodes: int) -> None:
        self._set_fields(name, num_nodes)
        if self.num_nodes < 1:
            raise HardwareError(f"cluster {self.name!r} needs at least one node")


class LinuxCluster:
    """A homogeneous cluster of server-capable Linux nodes."""

    def __init__(self, config: LinuxClusterConfig):
        self.config = config
        self.nodes: List[Node] = [
            Node(
                node_id=f"{config.name}:{i}",
                cluster=config.name,
                index=i,
                kind=NodeKind.LINUX,
                cpu=PPC970,
                capabilities=NodeCapabilities.linux(),
            )
            for i in range(config.num_nodes)
        ]

    @property
    def name(self) -> str:
        return self.config.name

    def node(self, index: int) -> Node:
        """The node with cluster-local number ``index``."""
        # As BlueGene.node: a negative list index would wrap around.
        if not isinstance(index, int) or not 0 <= index < len(self.nodes):
            raise HardwareError(
                f"no node {index} in cluster {self.name!r} "
                f"({len(self.nodes)} nodes)"
            )
        return self.nodes[index]

    def __repr__(self) -> str:
        return f"<LinuxCluster {self.name!r} x{len(self.nodes)}>"
