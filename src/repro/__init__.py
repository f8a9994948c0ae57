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

from repro.util.lazy import lazy_exports

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

__getattr__ = lazy_exports(__name__, {
    "repro.scsql.session": ("SCSQSession",),
    "repro.hardware.environment": ("Environment", "EnvironmentConfig"),
    "repro.hardware.bluegene": ("BlueGene", "BlueGeneConfig"),
    "repro.engine.settings": ("ExecutionSettings",),
    "repro.net.params": ("NetworkParams",),
    "repro.coordinator.deployer": ("ExecutionReport",),
    "repro.coordinator.graph": ("QueryGraph", "SPDef"),
    "repro.core.measurement": ("measure_query_bandwidth", "BandwidthResult"),
    "repro.optimizer.placement": ("CostBasedPlacer",),
    "repro.obs.instrument": ("Instrumentation",),
})
