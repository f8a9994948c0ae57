"""Hardware environment: the simulated LOFAR testbed.

Models the machines of the paper's Figure 1 — a BlueGene partition with
torus-addressed compute nodes, psets and I/O nodes; Linux front-end and
back-end clusters — together with the per-cluster compute node databases
used by the coordinators for node selection.

The environment, which wires these machines to the network models of
:mod:`repro.net`, is re-exported on first access: ``repro.net`` imports
the node types from this package, so loading the environment here would
import ``repro.net`` from inside itself.
"""

from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.linux_cluster import LinuxCluster, LinuxClusterConfig
from repro.hardware.node import (
    PPC440D,
    PPC970,
    CpuSpec,
    Node,
    NodeCapabilities,
    NodeKind,
)
from repro.util.lazy import lazy_exports

__all__ = [
    "BlueGene",
    "BlueGeneConfig",
    "ComputeNodeDatabase",
    "Environment",
    "EnvironmentConfig",
    "BLUEGENE",
    "BACKEND",
    "FRONTEND",
    "LinuxCluster",
    "LinuxClusterConfig",
    "Node",
    "NodeKind",
    "NodeCapabilities",
    "CpuSpec",
    "PPC440D",
    "PPC970",
]

__getattr__ = lazy_exports(__name__, {
    "repro.hardware.environment": (
        "BACKEND", "BLUEGENE", "FRONTEND", "Environment", "EnvironmentConfig",
    ),
})
