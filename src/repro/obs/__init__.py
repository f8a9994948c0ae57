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
carries the shared :data:`~repro.obs.instrument.NULL_OBS` hub, whose
``enabled`` flag short-circuits every hook site.

The four names re-exported here are the ones imported through the package
elsewhere in the repo; everything else is imported from its module
(``repro.obs.export``, ``repro.obs.live``, ``repro.obs.flow``, ...).
"""

from repro.obs.instrument import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile, profile_flows

__all__ = ["Instrumentation", "MetricsRegistry", "profile", "profile_flows"]
