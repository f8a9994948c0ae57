"""Exception hierarchy for the SCSQ reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch one base class.  Sub-hierarchies mirror the subsystems: simulation
kernel, network models, hardware environment, coordination/allocation, and
the SCSQL query pipeline (parse / semantic / execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the SCSQ reproduction library."""


class SimulationError(ReproError):
    """An invariant of the discrete-event simulation kernel was violated."""


class NetworkError(ReproError):
    """A network model was used incorrectly (bad route, closed channel...)."""


class HardwareError(ReproError):
    """The hardware environment was configured or queried incorrectly."""


class AllocationError(ReproError):
    """Node selection failed: no node in the allocation sequence is available.

    The paper (section 2.4) specifies this outcome explicitly: "In case the
    stream contains no available node, the query will fail."

    Attributes:
        diagnostics: The coded :class:`repro.analysis.Diagnostic` objects
            behind the failure when the placement resolver raised it (empty
            for direct selector / sequence failures).
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class MeasurementError(ReproError):
    """A bandwidth measurement produced an unusable sample (e.g. a run that
    finished in zero simulated time, making bandwidth undefined)."""


class QueryError(ReproError):
    """Base class for all SCSQL query-pipeline errors."""


class QueryParseError(QueryError):
    """The SCSQL text could not be tokenized or parsed.

    Attributes:
        line: 1-based line of the offending token, when known.
        column: 1-based column of the offending token, when known.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class QuerySemanticError(QueryError):
    """The query parsed but is not well formed (unknown function, unbound
    variable, cyclic process definitions, type mismatch...)."""


class QueryExecutionError(QueryError):
    """The query failed while executing on the simulated environment."""


class PlanVerificationError(QueryError):
    """A deployment plan failed static verification.

    Raised by the :mod:`repro.analysis` plan verifier (and by the deployer's
    pre-deployment checks) *before* any simulation runs, so a malformed plan
    — an over-subscribed node, an exhausted allocation sequence, an
    allocation naming a node absent from the CNDB — fails fast with
    structured diagnostics instead of a bare error deep inside allocation.

    Attributes:
        diagnostics: The :class:`repro.analysis.Diagnostic` objects behind
            the failure (empty when raised from a context that has no
            report, e.g. hand-rolled checks).
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class SanitizationError(ReproError):
    """A dynamic sanitizer pass found defects (leaks, races, wedged waiters).

    Raised when a strict :func:`repro.analysis.sanitize.sanitizer` scope
    exits with findings, or by
    :func:`repro.analysis.sanitize.assert_quiescent` when an environment
    still holds leaked state after every deployment was torn down.

    Attributes:
        diagnostics: The ``SANxxx`` :class:`repro.analysis.Diagnostic`
            objects behind the failure.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)
