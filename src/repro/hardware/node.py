"""Node model: compute nodes, I/O nodes, and their capabilities.

The paper's environment (section 2.1) contains three kinds of nodes:

* **BlueGene compute nodes** — dual PowerPC 440d 700 MHz; one CPU computes,
  the other acts as communication co-processor; 512 MB local memory; run the
  single-process CNK operating system with no server capabilities (no
  ``listen()``/``accept()``/``select()``).
* **BlueGene I/O nodes** — one per *pset* of 8 compute nodes, 1 Gbit/s NIC,
  "only used for communication, and cannot be used for computations".
* **Linux cluster nodes** — IBM JS20, dual PowerPC 970 2.2 GHz, 1 GigE NIC,
  full Linux (server-capable, many processes).

These physical constraints are what the coordinator layer enforces when it
places running processes, so they are modelled explicitly here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.util.errors import HardwareError


class NodeKind(enum.Enum):
    """Classification of a node within the heterogeneous environment."""

    BG_COMPUTE = "bg_compute"
    BG_IO = "bg_io"
    LINUX = "linux"


@dataclass(frozen=True)
class CpuSpec:
    """A CPU model, for the CNDB and (eventually) cost-based optimization."""

    model: str
    clock_hz: float
    cores: int = 1

    def __str__(self) -> str:
        return f"{self.model} @ {self.clock_hz / 1e6:.0f} MHz x{self.cores}"


# CPU specs quoted in the paper, section 2.1.
PPC440D = CpuSpec(model="PowerPC 440d", clock_hz=700e6, cores=2)
PPC970 = CpuSpec(model="PowerPC 970", clock_hz=2.2e9, cores=2)


@dataclass(frozen=True)
class NodeCapabilities:
    """Operating-system level capabilities relevant to RP placement."""

    can_listen: bool
    max_processes: Optional[int]  # None = effectively unlimited
    can_compute: bool

    @staticmethod
    def cnk() -> "NodeCapabilities":
        """BlueGene compute-node kernel: one process, no server sockets."""
        return NodeCapabilities(can_listen=False, max_processes=1, can_compute=True)

    @staticmethod
    def io_node() -> "NodeCapabilities":
        """BlueGene I/O node: communication only, no user computation."""
        return NodeCapabilities(can_listen=True, max_processes=None, can_compute=False)

    @staticmethod
    def linux() -> "NodeCapabilities":
        """Full Linux node."""
        return NodeCapabilities(can_listen=True, max_processes=None, can_compute=True)


@dataclass
class Node:
    """One node of the environment.

    Attributes:
        node_id: Globally unique identifier, ``"<cluster>:<index>"``.
        cluster: Name of the owning cluster (``'bg'``, ``'be'``, ``'fe'``).
        index: The node number within its cluster.  For BlueGene compute
            nodes this is the torus enumeration number used by the paper's
            explicit node selections (0, 1, 2, 4, ...).
        kind: Node classification.
        cpu: CPU specification.
        capabilities: OS-level placement constraints.
        torus_coord: (x, y, z) position for BlueGene compute nodes.
        pset_id: pset membership for BlueGene compute nodes.
    """

    node_id: str
    cluster: str
    index: int
    kind: NodeKind
    cpu: CpuSpec
    capabilities: NodeCapabilities
    torus_coord: Optional[Tuple[int, int, int]] = None
    pset_id: Optional[int] = None
    running_processes: int = field(default=0, repr=False)
    failed: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.kind is NodeKind.BG_COMPUTE and self.torus_coord is None:
            raise HardwareError(f"BlueGene compute node {self.node_id} needs a torus coordinate")

    def can_host(self, pending: int = 0) -> bool:
        """True if another running process may be placed on this node.

        ``pending`` counts placements decided but not yet acquired — the
        occupancy of an assignment still under search (the cost-based
        placer's candidates) — on top of the processes already running.
        """
        if self.failed or not self.capabilities.can_compute:
            return False
        limit = self.capabilities.max_processes
        return limit is None or self.running_processes + pending < limit

    @property
    def is_available(self) -> bool:
        """True if another running process may be placed here right now."""
        return self.can_host()

    def fail(self) -> None:
        """Mark this node as failed: no further process may be placed here.

        Processes already placed keep their accounting (``release`` still
        works), so a deployment torn down after the failure leaves the
        bookkeeping consistent; only *new* placements are refused, by
        every consumer of :meth:`can_host` — allocation sequences, the
        node selectors, the cost-based placer's candidates, and the
        placement resolver.
        """
        self.failed = True

    def restore(self) -> None:
        """Bring a failed node back (the environment template reset path)."""
        self.failed = False

    def acquire(self) -> None:
        """Record the placement of one running process on this node."""
        if not self.is_available:
            raise HardwareError(f"node {self.node_id} cannot accept another process")
        self.running_processes += 1

    def release(self) -> None:
        """Record that one running process on this node terminated."""
        if self.running_processes <= 0:
            raise HardwareError(f"node {self.node_id} has no process to release")
        self.running_processes -= 1

    def __str__(self) -> str:
        return self.node_id
