"""The BlueGene/L machine model: torus-addressed compute nodes and psets.

The paper's partition (section 2.1 and section 3.2 observation 5):

* dual-CPU compute nodes on a 3D torus (1.4 Gbps links) and a tree network
  (2.8 Gbps),
* compute nodes grouped into *psets* of 8, each pset served by one I/O node
  with a 1 Gbit/s NIC,
* the experiments ran on a partition with **four** I/O nodes (hence four
  psets, 32 compute nodes) — that scarcity causes the Figure 15 dip at n=5.

Node numbering follows the torus enumeration the paper relies on when it
writes "x=1 and y=2 to select compute nodes arranged as in figure 7A": node
numbers enumerate the X dimension first, then Y, then Z, so consecutive node
numbers are torus neighbours along X, and node ``x_size`` is the +Y
neighbour of node 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.hardware.node import PPC440D, Node, NodeCapabilities, NodeKind
from repro.util.errors import HardwareError


@dataclass(frozen=True)
class BlueGeneConfig:
    """Shape and constants of the simulated BlueGene partition.

    The defaults describe the partition used in the paper's experiments:
    4 psets of 8 compute nodes in a 4x4x2 torus, 4 I/O nodes.
    """

    torus_shape: Tuple[int, int, int] = (4, 4, 2)
    pset_size: int = 8

    @property
    def num_compute_nodes(self) -> int:
        x, y, z = self.torus_shape
        return x * y * z

    @property
    def num_psets(self) -> int:
        if self.num_compute_nodes % self.pset_size:
            raise HardwareError(
                f"torus {self.torus_shape} not divisible into psets of {self.pset_size}"
            )
        return self.num_compute_nodes // self.pset_size

    def __post_init__(self):
        if any(d < 1 for d in self.torus_shape):
            raise HardwareError(f"invalid torus shape {self.torus_shape}")
        if self.pset_size < 1:
            raise HardwareError(f"invalid pset size {self.pset_size}")
        _ = self.num_psets  # validate divisibility eagerly


class BlueGene:
    """A BlueGene partition: compute nodes, torus coordinates, psets, I/O nodes."""

    CLUSTER_NAME = "bg"

    def __init__(self, config: BlueGeneConfig = BlueGeneConfig()):
        self.config = config
        self.compute_nodes: List[Node] = []
        self.io_nodes: List[Node] = []
        self._coord_to_index: Dict[Tuple[int, int, int], int] = {}
        self._build()

    def _build(self) -> None:
        x_size, y_size, z_size = self.config.torus_shape
        index = 0
        for z in range(z_size):
            for y in range(y_size):
                for x in range(x_size):
                    coord = (x, y, z)
                    pset_id = index // self.config.pset_size
                    node = Node(
                        node_id=f"{self.CLUSTER_NAME}:{index}",
                        cluster=self.CLUSTER_NAME,
                        index=index,
                        kind=NodeKind.BG_COMPUTE,
                        cpu=PPC440D,
                        capabilities=NodeCapabilities.cnk(),
                        torus_coord=coord,
                        pset_id=pset_id,
                    )
                    self.compute_nodes.append(node)
                    self._coord_to_index[coord] = index
                    index += 1
        for pset_id in range(self.config.num_psets):
            self.io_nodes.append(
                Node(
                    node_id=f"{self.CLUSTER_NAME}-io:{pset_id}",
                    cluster=self.CLUSTER_NAME,
                    index=pset_id,
                    kind=NodeKind.BG_IO,
                    cpu=PPC440D,
                    capabilities=NodeCapabilities.io_node(),
                    pset_id=pset_id,
                )
            )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def node(self, index: int) -> Node:
        """The compute node with torus enumeration number ``index``."""
        # A negative list index wraps around: -1 is not a node number.
        if not isinstance(index, int) or not 0 <= index < len(self.compute_nodes):
            raise HardwareError(
                f"no BlueGene compute node {index} "
                f"(partition has {len(self.compute_nodes)})"
            )
        return self.compute_nodes[index]

    def coord_of(self, index: int) -> Tuple[int, int, int]:
        """Torus coordinate of compute node ``index``."""
        coord = self.node(index).torus_coord
        assert coord is not None
        return coord

    def index_of(self, coord: Tuple[int, int, int]) -> int:
        """Enumeration number of the compute node at ``coord``."""
        try:
            return self._coord_to_index[coord]
        except KeyError:
            raise HardwareError(f"no compute node at torus coordinate {coord}") from None

    def pset_of(self, index: int) -> int:
        """pset id of compute node ``index``."""
        pset_id = self.node(index).pset_id
        assert pset_id is not None
        return pset_id

    def nodes_in_pset(self, pset_id: int) -> List[Node]:
        """All compute nodes of pset ``pset_id``, in enumeration order."""
        if not 0 <= pset_id < self.config.num_psets:
            raise HardwareError(
                f"no pset {pset_id} (partition has {self.config.num_psets})"
            )
        return [n for n in self.compute_nodes if n.pset_id == pset_id]

    def __repr__(self) -> str:
        return (
            f"<BlueGene {self.config.torus_shape} torus, "
            f"{len(self.compute_nodes)} compute nodes, "
            f"{len(self.io_nodes)} I/O nodes>"
        )
