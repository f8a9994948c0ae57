"""Checks of compiled queries and of running simulations.

* :mod:`repro.analysis.verifier` — proves a compiled
  :class:`~repro.scsql.plan.DeploymentPlan` deployable (or rejects it with
  coded diagnostics) by running the deployer's placement resolver on the
  real CNDBs between a topology ``snapshot()`` and ``restore()``, and warns
  where the cost model shows a topology link-bound.
* :mod:`repro.analysis.diagnostics` — the coded findings both report.
* :mod:`repro.analysis.sanitize` — audits executions for schedule races,
  leaks at teardown and wedged simulations.

Entry points: ``Deployer.verify(plan)`` and ``python -m repro analyze``.
The determinism rules on the simulator's own source (``DET00x``) are rows
of ``tests/test_removed_surface.py``.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "AnalysisReport",
    "CATALOG",
    "Diagnostic",
    "PlanVerificationError",
    "Severity",
    "verify_plan",
]

__getattr__ = lazy_exports(__name__, {
    "repro.analysis.diagnostics": (
        "CATALOG", "AnalysisReport", "Diagnostic", "PlanVerificationError", "Severity",
    ),
    "repro.analysis.verifier": ("verify_plan",),
})
