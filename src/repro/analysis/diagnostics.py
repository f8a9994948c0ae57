"""Diagnostics: the structured output of every `repro.analysis` pass.

A :class:`Diagnostic` is one finding — a stable code (``SCSQ...``), a
severity, a message, and where it points: the stream process and the SCSQL
source span of the ``sp()``/``spv()`` call that created it.  An
:class:`AnalysisReport` collects the findings of one verification run and
renders them as text or JSON.

The full code catalogue lives in ``docs/static-analysis.md``; the
:data:`CATALOG` table here is the machine-readable half (code -> default
severity + one-line title), used by the CLI and the docs test.
"""

from __future__ import annotations

import enum
import json
from typing import Dict, List, Optional, Tuple

from repro.util.errors import PlanVerificationError
from repro.util.record import Frozen, Record
from repro.util.source import Span

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "PlanVerificationError",
    "CATALOG",
]


class Severity(enum.Enum):
    """How bad a finding is.  Errors fail deployment; warnings fail only in
    strict mode; infos are advisory (model-derived bounds, etc.)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:
        return self.value


#: code -> (severity, one-line title).  Every diagnostic the
#: verifier can emit is registered here; ``docs/static-analysis.md``
#: documents each with a minimal triggering example.
CATALOG: Dict[str, Tuple[Severity, str]] = {
    # SCSQ0xx — process-graph structure
    "SCSQ001": (Severity.ERROR, "query graph has no root plan or an SP has no compiled plan"),
    "SCSQ002": (Severity.ERROR, "plan subscribes to an unknown stream process"),
    "SCSQ003": (Severity.ERROR, "cycle in the stream-process subscription graph"),
    "SCSQ004": (Severity.WARNING, "dangling stream: an SP's output is never consumed"),
    # SCSQ1xx — allocation / placement
    "SCSQ101": (Severity.ERROR, "stream process targets an unknown cluster"),
    "SCSQ102": (Severity.ERROR, "explicit allocation names a node absent from the CNDB"),
    "SCSQ103": (Severity.ERROR, "node over-subscribed by explicit allocations"),
    "SCSQ104": (Severity.ERROR, "allocation sequence exhausted before every SP was placed"),
    "SCSQ105": (Severity.ERROR, "inPset() names a pset absent from the CNDB"),
    "SCSQ106": (Severity.ERROR, "psetrr() on a cluster without psets"),
    "SCSQ107": (Severity.ERROR, "cluster has no available node for an unconstrained SP"),
    "SCSQ108": (Severity.ERROR, "explicit allocation pins a failed node"),
    # SCSQ2xx — cross-plan (concurrent deployments)
    "SCSQ201": (Severity.ERROR, "node already allocated by a concurrently deployed plan"),
    # SCSQ3xx — locality
    "SCSQ301": (Severity.WARNING, "SP pinned outside the pset receiving its inbound streams"),
    # SCSQ4xx — cost-model capacity bounds
    "SCSQ401": (Severity.WARNING, "inbound streams share one I/O-node proxy (link-bound)"),
    "SCSQ402": (Severity.INFO, "multiple sender hosts share the ingress uplink"),
    # SAN1xx — schedule-race sanitizer (chaos replay)
    "SAN101": (Severity.ERROR, "harness result depends on same-instant event dispatch order"),
    # SAN2xx — leak sanitizer (teardown / migration quiescence)
    "SAN201": (Severity.ERROR, "live process survived deployment teardown"),
    "SAN202": (Severity.ERROR, "inbox left open after deployment teardown"),
    "SAN203": (Severity.ERROR, "kernel store has blocked waiters after teardown"),
    "SAN204": (Severity.ERROR, "wire carrier registration leaked past teardown"),
    "SAN205": (Severity.ERROR, "node occupancy not returned to the CNDB"),
    # SAN3xx — liveness analyzer
    "SAN301": (Severity.ERROR, "simulation wedged: waiters outstanding with no runnable event"),
}


class Diagnostic(Frozen):
    """One static-analysis finding.

    Attributes:
        code: Stable catalogue code (``SCSQ103``, ``SAN201``, ...).
        severity: Effective severity of this occurrence.
        message: Human-readable description with the concrete ids/bounds.
        sp_id: Stream process the finding is about, when applicable.
        span: SCSQL source position of the offending ``sp()``/``spv()``
            call, when the plan was compiled from source text.
    """

    code: str
    severity: Severity
    message: str
    sp_id: Optional[str]
    span: Optional[Span]
    __slots__ = ("code", "severity", "message", "sp_id", "span")

    def __init__(self, code: str, severity: Severity, message: str, sp_id: Optional[str] = None,
                 span: Optional[Span] = None) -> None:
        self._set_fields(code, severity, message, sp_id, span)

    def format(self) -> str:
        """``error[SCSQ103] <line:col> <sp>: message`` (parts as known)."""
        where = []
        if self.span is not None:
            where.append(str(self.span))
        if self.sp_id:
            where.append(self.sp_id)
        location = " ".join(where)
        head = f"{self.severity}[{self.code}]"
        return f"{head} {location}: {self.message}" if location else f"{head}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.sp_id:
            data["sp_id"] = self.sp_id
        if self.span is not None:
            data["line"], data["column"] = self.span.line, self.span.column
        return data


def diagnostic(
    code: str,
    message: str,
    sp_id: Optional[str] = None,
    span: Optional[Span] = None,
) -> Diagnostic:
    """Build a verifier diagnostic with its catalogued severity."""
    severity, _title = CATALOG[code]
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        sp_id=sp_id,
        span=span,
    )


class AnalysisReport(Record):
    """All findings of one plan verification.

    ``label`` names what was verified (a query label, a sweep-point key)
    so multi-plan reports stay readable.
    """

    __slots__ = ("label", "diagnostics")

    def __init__(self, label: str = "query",
                 diagnostics: Optional[List[Diagnostic]] = None) -> None:
        self.label = label
        self.diagnostics = [] if diagnostics is None else diagnostics

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def extend(self, other: "AnalysisReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    def ok(self, strict: bool = False) -> bool:
        """True when the plan may deploy: no errors (strict: no warnings)."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def format_text(self, verbose: bool = False) -> str:
        """Pretty multi-line rendering; infos only when ``verbose``."""
        shown = [
            d
            for d in self.diagnostics
            if verbose or d.severity is not Severity.INFO
        ]
        lines = [f"== {self.label}: " + self.summary()]
        lines.extend("  " + d.format() for d in shown)
        return "\n".join(lines)

    def summary(self) -> str:
        counts = (len(self.errors), len(self.warnings), len(self.infos))
        if counts == (0, 0, 0):
            return "ok"
        return f"{counts[0]} error(s), {counts[1]} warning(s), {counts[2]} info(s)"

    def to_json(self) -> str:
        return json.dumps(
            {
                "label": self.label,
                "ok": self.ok(),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=2,
        )

    def raise_if_failed(self, strict: bool = False) -> None:
        """Raise :class:`PlanVerificationError` unless :meth:`ok`."""
        if self.ok(strict=strict):
            return
        failing = self.errors + (self.warnings if strict else [])
        raise PlanVerificationError(
            f"plan verification failed for {self.label!r}: "
            + "; ".join(d.format() for d in failing),
            diagnostics=failing,
        )
