"""Core: the paper's contribution surface and its measurement harness.

Everything a user of the reproduction needs: sessions speak SCSQL with
stream processes as first-class objects (:mod:`repro.scsql`), the
measurement harness runs queries under the paper's five-repeat protocol,
and :mod:`repro.core.experiments` regenerates every measured figure.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "measure_query_bandwidth",
    "BandwidthResult",
    "DEFAULT_REPEATS",
    "MultiQuerySession",
    "MultiQueryResult",
    "QueryOutcome",
]

__getattr__ = lazy_exports(__name__, {
    "repro.core.measurement": ("DEFAULT_REPEATS", "BandwidthResult", "measure_query_bandwidth"),
    "repro.core.multiquery": ("MultiQueryResult", "MultiQuerySession", "QueryOutcome"),
})
