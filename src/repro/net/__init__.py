"""Network substrate: the simulated communication hardware of the testbed.

This package models the three communication subsystems the paper measures:

* the BlueGene 3D torus carrying MPI streams (:mod:`repro.net.torus`),
* switched Gigabit Ethernet + I/O-node TCP ingress (:mod:`repro.net.ethernet`),
* the channel abstraction the engine's drivers use (:mod:`repro.net.channels`).

All tunable cost constants live in :mod:`repro.net.params`.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Channel",
    "MpiChannel",
    "LatencyChannel",
    "EthernetFabric",
    "TcpStreamConnection",
    "TorusNetwork",
    "Jitter",
    "WireBuffer",
    "Fragment",
    "NetworkParams",
    "TorusParams",
    "CpuCostParams",
    "EthernetParams",
    "TcpParams",
    "IONodeParams",
    "DEFAULT_PARAMS",
]

__getattr__ = lazy_exports(__name__, {
    "repro.net.channels": ("Channel", "LatencyChannel", "MpiChannel"),
    "repro.net.ethernet": ("EthernetFabric", "TcpStreamConnection"),
    "repro.net.jitter": ("Jitter",),
    "repro.net.message": ("Fragment", "WireBuffer"),
    "repro.net.params": (
        "DEFAULT_PARAMS", "CpuCostParams", "EthernetParams", "IONodeParams", "NetworkParams",
        "TcpParams", "TorusParams",
    ),
    "repro.net.torus": ("TorusNetwork",),
})
