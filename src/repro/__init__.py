"""SCSQ reproduction: stream queries measuring communication performance.

A from-scratch Python reproduction of Zeitler & Risch, "Using stream
queries to measure communication performance of a parallel computing
environment" (ICDCS 2007): the SCSQ data stream management system, its
query language SCSQL with streams and stream processes as first-class
objects, and a discrete-event simulation of the LOFAR hardware environment
(BlueGene torus + I/O nodes, Linux clusters, GigE/TCP) that the paper's
bandwidth experiments run on.

Quick start::

    from repro import SCSQSession

    session = SCSQSession()
    report = session.execute('''
        select extract(b)
        from sp a, sp b
        where b=sp(streamof(count(extract(a))), 'bg', 0)
        and a=sp(gen_array(3000000,100), 'bg', 1);
    ''')
    print(report.result, report.duration)

See :mod:`repro.core.experiments` for the figure reproductions.
"""

from repro.coordinator import ExecutionReport, QueryGraph, SPDef
from repro.core import BandwidthResult, measure_query_bandwidth
from repro.engine import ExecutionSettings
from repro.hardware import (
    BlueGene,
    BlueGeneConfig,
    Environment,
    EnvironmentConfig,
)
from repro.net import NetworkParams
from repro.obs import Instrumentation
from repro.optimizer import CostBasedPlacer
from repro.scsql import SCSQSession

__version__ = "1.0.0"

__all__ = [
    "SCSQSession",
    "Environment",
    "EnvironmentConfig",
    "BlueGene",
    "BlueGeneConfig",
    "ExecutionSettings",
    "NetworkParams",
    "ExecutionReport",
    "QueryGraph",
    "SPDef",
    "measure_query_bandwidth",
    "BandwidthResult",
    "CostBasedPlacer",
    "Instrumentation",
    "__version__",
]
