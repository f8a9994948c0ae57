"""Network substrate: the simulated communication hardware of the testbed.

This package models the three communication subsystems the paper measures:

* the BlueGene 3D torus carrying MPI streams (:mod:`repro.net.torus`),
* switched Gigabit Ethernet + I/O-node TCP ingress (:mod:`repro.net.ethernet`),
* the channel abstraction the engine's drivers use (:mod:`repro.net.channels`).

All tunable cost constants live in :mod:`repro.net.params`.
"""

from repro.net.channels import Channel, LatencyChannel, MpiChannel
from repro.net.ethernet import EthernetFabric, TcpStreamConnection
from repro.net.jitter import Jitter
from repro.net.message import ControlKind, ControlMessage, Fragment, WireBuffer
from repro.net.params import (
    DEFAULT_PARAMS,
    CpuCostParams,
    EthernetParams,
    IONodeParams,
    NetworkParams,
    TcpParams,
    TorusParams,
)
from repro.net.torus import TorusNetwork

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
    "ControlMessage",
    "ControlKind",
    "NetworkParams",
    "TorusParams",
    "CpuCostParams",
    "EthernetParams",
    "TcpParams",
    "IONodeParams",
    "DEFAULT_PARAMS",
]
