"""Hardware environment: the simulated LOFAR testbed.

Models the machines of the paper's Figure 1 — a BlueGene partition with
torus-addressed compute nodes, psets and I/O nodes; Linux front-end and
back-end clusters — together with the per-cluster compute node databases
used by the coordinators for node selection.

Every name re-exported here resolves on first access, like those of every
package of ``repro``: importing one module loads only what that module
imports.
"""

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
    "repro.hardware.bluegene": ("BlueGene", "BlueGeneConfig"),
    "repro.hardware.cndb": ("ComputeNodeDatabase",),
    "repro.hardware.linux_cluster": ("LinuxCluster", "LinuxClusterConfig"),
    "repro.hardware.node": (
        "PPC440D", "PPC970", "CpuSpec", "Node", "NodeCapabilities", "NodeKind",
    ),
    "repro.hardware.environment": (
        "BACKEND", "BLUEGENE", "FRONTEND", "Environment", "EnvironmentConfig",
    ),
})
