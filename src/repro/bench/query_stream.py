"""Numbered benchmark query streams over the repro workloads.

The TPC-H-style half of the harness: a fixed *deck* of communication-heavy
SCSQL queries — one per workload family (:mod:`repro.workloads.linear_road`,
:mod:`~repro.workloads.signals`, :mod:`~repro.workloads.corpus`) — and
numbered *query streams* that run the deck in a seeded per-stream
permutation, exactly like TPC-H throughput streams run the 22 queries in
stream-numbered orders.

Every deck query pushes its workload's data from the back-end Linux
cluster into the BlueGene over the Ethernet ingress (NIC -> switch uplink
-> I/O-node proxy -> tree network), so concurrent streams contend for the
shared links the paper measures:

* ``linear-road`` — per-segment speed streams into BlueGene tumbling-window
  congestion detectors (the paper's future-work benchmark, section 5);
* ``signals`` — antenna signal arrays into a BlueGene FFT process;
* ``grep`` — the paper's distributed-grep mapreduce, with the reduce
  (count) moved onto a BlueGene node so the matched lines cross the
  ingress.

:func:`build_query` is a pure function of ``(kind, stream_id, scale,
seed)`` — workers rebuild queries from those picklable coordinates, which
is what keeps the fault benchmark's ``--jobs N`` fan-out bit-identical to
a serial run.
"""

from __future__ import annotations

import random
from typing import Any, Callable, ContextManager, Dict, Iterable, Iterator, List, Tuple

from repro.engine.objects import size_of
from repro.util.errors import QueryExecutionError
from repro.util.record import Frozen, Record

#: Deck order of stream 0 (the power-mode stream): one query per workload.
QUERY_KINDS: Tuple[str, ...] = ("linear-road", "signals", "grep")


class StreamScale(Frozen):
    """Workload sizes of one deck configuration (picklable, frozen).

    Two presets ship: :data:`DEFAULT_SCALE` for real measurements and
    :data:`SMOKE_SCALE` for CI smoke runs.
    """

    name: str
    lr_vehicles: int
    lr_segments: int
    lr_ticks: int
    lr_window: int
    sig_count: int
    sig_points: int
    grep_files: int
    __slots__ = ("name", "lr_vehicles", "lr_segments", "lr_ticks", "lr_window", "sig_count",
                 "sig_points", "grep_files")

    def __init__(self, name: str, lr_vehicles: int, lr_segments: int, lr_ticks: int, lr_window: int,
                 sig_count: int, sig_points: int, grep_files: int) -> None:
        self._set_fields(name, lr_vehicles, lr_segments, lr_ticks, lr_window, sig_count, sig_points,
                         grep_files)


DEFAULT_SCALE = StreamScale(
    name="default",
    lr_vehicles=24, lr_segments=4, lr_ticks=120, lr_window=20,
    sig_count=8, sig_points=1024,
    grep_files=12,
)

SMOKE_SCALE = StreamScale(
    name="smoke",
    lr_vehicles=8, lr_segments=2, lr_ticks=40, lr_window=10,
    sig_count=3, sig_points=256,
    grep_files=4,
)


class BenchQuery(Record):
    """One deck query instantiated for one stream.

    Attributes:
        kind: Deck family (:data:`QUERY_KINDS` member).
        stream_id: The numbered query stream this instance belongs to;
            baked into source names and file ranges so concurrent streams
            never share data.
        query: The SCSQL text.
        payload_bytes: Exact marshaled bytes the query streams over the
            be->bg ingress (computed with the engine's own
            :func:`~repro.engine.objects.size_of` model).
        sources: External source name -> factory returning a fresh
            iterator over data built once with the query, to register
            before deploying (empty for source-less queries).
        expected_result: The scalar the query's root count must produce
            (reference-computed from the workload), for correctness
            assertions on harness runs.
    """

    __slots__ = ("kind", "stream_id", "query", "payload_bytes", "sources", "expected_result")

    def __init__(self, kind: str, stream_id: int, query: str, payload_bytes: int,
                 sources: Dict[str, Callable[[], Iterator[Any]]], expected_result: int = 0) -> None:
        self.kind = kind
        self.stream_id = stream_id
        self.query = query
        self.payload_bytes = payload_bytes
        self.sources = sources
        self.expected_result = expected_result

    @property
    def name(self) -> str:
        return f"{self.kind}:s{self.stream_id}"


def query_order(stream_id: int, seed: int = 0) -> List[str]:
    """The deck order of numbered stream ``stream_id`` (TPC-H style).

    Stream 0 runs the canonical :data:`QUERY_KINDS` order; every other
    stream runs a deterministic permutation drawn from ``(seed,
    stream_id)`` and rotated by its stream number, so interleaved
    throughput streams are guaranteed to mix query kinds in every round.
    """
    if stream_id < 0:
        raise QueryExecutionError(f"stream id must be >= 0, got {stream_id}")
    order = list(QUERY_KINDS)
    if stream_id:
        random.Random(f"deck:{seed}:{stream_id}").shuffle(order)
        pivot = stream_id % len(order)
        order = order[pivot:] + order[:pivot]
    return order


def _workload_seed(seed: int, stream_id: int) -> int:
    """Per-stream data seed: distinct streams stream distinct data."""
    return seed + 97 * stream_id


def _linear_road_query(stream_id: int, scale: StreamScale, seed: int) -> BenchQuery:
    """Per-segment speeds cross the ingress into BG congestion detectors."""
    from repro.workloads import linear_road

    wseed = _workload_seed(seed, stream_id)
    accident = linear_road.Accident(
        segment=stream_id % scale.lr_segments,
        start_tick=scale.lr_ticks // 4,
        end_tick=3 * scale.lr_ticks // 4,
    )
    reports = linear_road.position_reports(
        scale.lr_vehicles, scale.lr_segments, scale.lr_ticks,
        seed=wseed, accident=accident,
    )
    partitions = linear_road.partition_by_segment(reports, scale.lr_segments)
    sources: Dict[str, Callable[[], Iterator[Any]]] = {}
    payload = 0
    expected = 0
    for segment, rows in partitions.items():
        speeds = linear_road.segment_speeds(rows)
        payload += sum(size_of(speed) for speed in speeds)
        expected += linear_road.expected_congested_windows(speeds, scale.lr_window)
        sources[f"bench-lr-s{stream_id}-seg{segment}"] = (
            lambda data=tuple(speeds): iter(data)
        )
    n = scale.lr_segments
    decls = ", ".join(
        [f"sp s{i}" for i in range(n)] + [f"sp d{i}" for i in range(n)] + ["sp c"]
    )
    conjuncts = [
        "c=sp(count(merge({" + ", ".join(f"d{i}" for i in range(n)) + "})), 'bg')"
    ]
    for i in range(n):
        conjuncts.append(
            f"d{i}=sp(below(winagg(extract(s{i}), 'avg', {scale.lr_window}, "
            f"{scale.lr_window}), {linear_road.CONGESTION_SPEED}), 'bg', psetrr())"
        )
        conjuncts.append(
            f"s{i}=sp(receiver('bench-lr-s{stream_id}-seg{i}'), 'be', urr('be'))"
        )
    query = (
        f"select extract(c) from {decls} where " + " and ".join(conjuncts) + ";"
    )
    return BenchQuery(
        kind="linear-road",
        stream_id=stream_id,
        query=query,
        payload_bytes=payload,
        sources=sources,
        expected_result=expected,
    )


def _signals_query(stream_id: int, scale: StreamScale, seed: int) -> BenchQuery:
    """Signal arrays cross the ingress into a BlueGene FFT process."""
    from repro.workloads import signals

    name = f"bench-sig-s{stream_id}"
    source = signals.make_signal_source(
        scale.sig_count,
        n_points=scale.sig_points,
        seed=_workload_seed(seed, stream_id),
    )
    payload = sum(size_of(array) for array in source())
    query = (
        "select extract(c) from sp s, sp f, sp c "
        "where c=sp(count(extract(f)), 'bg') "
        "and f=sp(fft(extract(s)), 'bg', psetrr()) "
        f"and s=sp(receiver('{name}'), 'be', urr('be'));"
    )
    return BenchQuery(
        kind="signals",
        stream_id=stream_id,
        query=query,
        payload_bytes=payload,
        sources={name: source},
        expected_result=scale.sig_count,
    )


def _grep_query(stream_id: int, scale: StreamScale, seed: int) -> BenchQuery:
    """Distributed grep whose matched lines cross the ingress to a BG count.

    Each stream greps its own slice of the corpus file table; ``seed``
    does not enter (the corpus is keyed by file name), but the payload is
    still stream-specific through the file range.
    """
    from repro.workloads import corpus

    del seed  # corpus content is a pure function of the file names
    lo = stream_id * scale.grep_files + 1
    hi = (stream_id + 1) * scale.grep_files
    # The engine's grep operator reads corpus files at their default
    # length, so the payload model must do the same.  This scan also
    # generates each file into the corpus memo, so every deployment's
    # grep operators replay the files instead of generating them again.
    payload = 0
    for i in range(lo, hi + 1):
        for line in corpus.read_file(corpus.filename(i)):
            if corpus.MARKER in line:
                payload += size_of(line)
    query = (
        "select extract(c) from bag of sp g, sp c "
        "where c=sp(count(merge(g)), 'bg', psetrr()) "
        f"and g=spv((select grep('{corpus.MARKER}', filename(i)) "
        f"from integer i where i in iota({lo},{hi})), 'be', urr('be'));"
    )
    return BenchQuery(
        kind="grep",
        stream_id=stream_id,
        query=query,
        payload_bytes=payload,
        sources={},
        expected_result=grep_line_count(scale),
    )


_BUILDERS: Dict[str, Callable[[int, StreamScale, int], BenchQuery]] = {
    "linear-road": _linear_road_query,
    "signals": _signals_query,
    "grep": _grep_query,
}


def build_query(
    kind: str, stream_id: int, scale: StreamScale, seed: int = 0
) -> BenchQuery:
    """Instantiate one deck query for one numbered stream.

    Pure and deterministic: the same ``(kind, stream_id, scale, seed)``
    always yields the same SCSQL text, payload, and source data — in any
    process.  Every input is built here, once; each deployment of the
    query replays it (:func:`registered`).
    """
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise QueryExecutionError(
            f"unknown bench query kind {kind!r}; deck has {QUERY_KINDS}"
        ) from None
    if stream_id < 0:
        raise QueryExecutionError(f"stream id must be >= 0, got {stream_id}")
    return builder(stream_id, scale, seed)


def grep_line_count(scale: StreamScale) -> int:
    """Reference matched-line count of one grep deck query (any stream)."""
    from repro.workloads import corpus

    return scale.grep_files * corpus.expected_marker_count()


def registered(queries: Iterable[BenchQuery]) -> ContextManager[None]:
    """Put every query's external sources in scope for the enclosed block
    (:func:`~repro.engine.operators.sources.external_sources`).

    :func:`build_query` has built every input already; a factory returns
    a fresh iterator over that existing data, so each deployment inside
    one ``with`` block (solo baseline, concurrent run, post-failure
    replacement) replays the same inputs, and operators must not mutate
    them.
    """
    from repro.engine.operators.sources import external_sources

    return external_sources({
        name: factory for query in queries for name, factory in query.sources.items()
    })
