"""Observability over the simulation substrate: tracing, metrics, exporters.

The discrete-event kernel and every model running on it (torus, Ethernet
ingress, engine drivers) expose their internal mechanism — resource
contention, queue build-up, padding overhead — through this package, so the
*causes* behind the reproduced figures are assertable in tests and
inspectable on a timeline.

Usage::

    from repro.obs import Instrumentation
    from repro.obs.export import utilization_summary, write_chrome_trace

    obs = Instrumentation()
    env = Environment(EnvironmentConfig(), obs=obs)
    SCSQSession(env).execute(query)
    print(utilization_summary(obs))
    write_chrome_trace("run.json", [("my run", obs.tracer)])

Tracing is strictly opt-in: a simulator created without instrumentation
carries the shared :data:`~repro.obs.null.NULL_OBS` hub, whose ``enabled``
flag short-circuits every hook site.

The two names re-exported here resolve on first access; everything else is
imported from its module (``repro.obs.profile``, ``repro.obs.flow``, ...).
"""

from repro.util.lazy import lazy_exports

__all__ = ["Instrumentation", "MetricsRegistry"]

__getattr__ = lazy_exports(__name__, {
    "repro.obs.instrument": ("Instrumentation",),
    "repro.obs.metrics": ("MetricsRegistry",),
})
