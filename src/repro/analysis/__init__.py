"""Static analysis of compiled queries and of the simulator's own code.

Two halves:

* :mod:`repro.analysis.verifier` — proves a compiled
  :class:`~repro.scsql.plan.DeploymentPlan` deployable (or rejects it with
  coded diagnostics) by running the deployer's placement resolver on the
  real CNDBs between a topology ``snapshot()`` and ``restore()``, and warns
  where the cost model shows a topology link-bound.
* :mod:`repro.analysis.lint` — AST lints keeping the simulation kernel
  deterministic (no wall clock, no global RNG, no set-order dependence,
  ``__slots__`` events, guarded obs hooks).

Entry points: ``Deployer.verify(plan)``, ``python -m repro analyze``, and
``python -m repro.analysis.lint``.
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
