"""Source positions for SCSQL diagnostics.

A :class:`Span` is the 1-based (line, column) position of a token in SCSQL
source text.  The parser attaches spans to the AST nodes the static
analyzer reports on (``sp()``/``spv()`` call sites), the compiler threads
them onto the stream-process definitions they create, and
:mod:`repro.analysis` diagnostics carry them back to the user.

The class lives here — below both :mod:`repro.scsql` and
:mod:`repro.coordinator` — because the coordinator's process graphs store
spans without depending on the SCSQL front end.
"""

from __future__ import annotations

from repro.util.record import Frozen, setters


class Span(Frozen):
    """A 1-based source position (line, column) in SCSQL query text."""

    line: int
    column: int
    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        _span_line(self, line)
        _span_column(self, column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


_span_line, _span_column = setters(Span)
