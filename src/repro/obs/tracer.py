"""Structured event tracing over virtual (simulated) time.

A :class:`Tracer` records what the discrete-event kernel and the models
built on top of it are doing, with *simulated* timestamps, so a whole run
can be replayed on a timeline afterwards.  Records are small tuples kept in
one append-only list; everything presentation-related (Chrome ``trace_event``
JSON, JSON-lines) lives in :mod:`repro.obs.export`.

The default tracer on every simulator is :data:`NULL_TRACER`, whose methods
are all no-ops and whose ``enabled`` flag lets hot paths skip even building
the record — tracing costs nothing unless it was asked for.

Record kinds (the ``kind`` field of :class:`TraceRecord`):

``span_begin`` / ``span_end``
    An interval on a named *track* (a resource, a process group).  Matched
    by ``ident``; intervals on one track may overlap (capacity > 1
    resources, concurrent processes of the same name).
``instant``
    A point occurrence (an interrupt, an end-of-stream marker).
``counter``
    A sampled numeric level (store size, queue depth) on a track.
"""

from typing import Any, Iterator, List, NamedTuple, Optional


class TraceRecord(NamedTuple):
    """One recorded occurrence at a virtual timestamp."""

    ts: float
    """Simulated time of the occurrence, seconds."""

    kind: str
    """``span_begin`` | ``span_end`` | ``instant`` | ``counter``."""

    track: str
    """The timeline row the record belongs to (resource/process/store name)."""

    name: str
    """Label of the span/instant, or the counter series name."""

    ident: Optional[int]
    """Correlates span_begin/span_end pairs (None for instants/counters)."""

    args: Any
    """Extra payload: a dict for spans/instants, a number for counters."""


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    Kernel hot paths check :attr:`enabled` before assembling any record, so
    a simulation with the null tracer does no tracing work at all.
    """

    enabled = False

    def span_begin(self, ts: float, track: str, name: str, ident: Optional[int] = None) -> None:
        pass

    def span_end(self, ts: float, track: str, name: str, ident: Optional[int] = None,
                 args: Any = None) -> None:
        pass

    def instant(self, ts: float, track: str, name: str, args: Any = None) -> None:
        pass

    def counter(self, ts: float, track: str, name: str, value: float) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(())


#: Shared no-op tracer used when tracing is disabled.
NULL_TRACER = NullTracer()


class Tracer(NullTracer):
    """An enabled tracer accumulating :class:`TraceRecord` tuples."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[TraceRecord] = []

    def span_begin(self, ts: float, track: str, name: str, ident: Optional[int] = None) -> None:
        self.records.append(TraceRecord(ts, "span_begin", track, name, ident, None))

    def span_end(self, ts: float, track: str, name: str, ident: Optional[int] = None,
                 args: Any = None) -> None:
        self.records.append(TraceRecord(ts, "span_end", track, name, ident, args))

    def instant(self, ts: float, track: str, name: str, args: Any = None) -> None:
        self.records.append(TraceRecord(ts, "instant", track, name, None, args))

    def counter(self, ts: float, track: str, name: str, value: float) -> None:
        self.records.append(TraceRecord(ts, "counter", track, name, None, value))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)
