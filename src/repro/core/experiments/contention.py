"""Concurrent queries: the ``multiquery`` figure.

Figure 15 shows inbound queries whose BlueGene receivers sit in one pset
bottlenecked by that pset's one I/O node.  This row puts k independent
Query-3-shaped queries of n streams each (one back-end sender node per
query) on one environment, each point one
:class:`~repro.core.multiquery.MultiQuerySession` under the section 3
protocol, beside the solo (k = 1) points.  A model in which concurrent
streams share only per-node compute and per-link bandwidth makes k queries
of n streams cost what one query of k·n streams costs (the
``multiquery.*`` claims).
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

from repro.core.experiments.fig15 import PAPER_ARRAY_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import BandwidthResult, PointSpec, SweepResult

#: Back-end sender node per query of a "distinct" point: query i sends
#: from node 1 + i, so the only shared resource is the receiving path.
DEFAULT_SENDERS: Dict[str, int] = {"qA": 1, "qB": 2}

#: The contended pset (every query of a "shared" point receives in it).
SHARED_PSET = 1


def contending_query(
    sender_node: int, n: int, array_bytes: int, count: int, pset: int = SHARED_PSET
) -> str:
    """A Figure-15 Query-3-shaped CQ with an explicit back-end sender node.

    ``n`` array streams leave back-end node ``sender_node``; each is
    counted on its own compute node inside ``pset``, and the counts are
    summed on one further BlueGene node.
    """
    return f"""
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
  'bg', inPset({pset}))
and a=spv(
  (select gen_array({array_bytes},{count})
   from integer i where i in iota(1,n)),
  'be', {sender_node})
and n={n};
"""


class ContentionKey(NamedTuple):
    """One point: k concurrent queries of n streams each."""

    queries: int
    n: int
    senders: str  # "same": every query sends from node 1; "distinct": query i from 1 + i
    psets: str  # "shared": every query receives in SHARED_PSET; "disjoint": in SHARED_PSET + i


#: (k, n, senders, psets): the solo points (k = 1), then k concurrent
#: queries from one sender into one pset, from distinct senders into one
#: pset, and into disjoint psets.  Every k·n of a session has its solo point.
DEFAULT_POINTS: Tuple[Tuple[int, int, str, str], ...] = (
    *((1, n, "same", "shared") for n in (1, 2, 4, 6, 8)),
    *((k, n, "same", "shared") for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (4, 1),
                                           (4, 2), (8, 1))),
    *((k, n, "distinct", "shared") for k, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2))),
    *((2, n, "distinct", "disjoint") for n in (2, 4)),
)
DEFAULT_ARRAY_COUNT = 5


def contention_specs(
    points: Sequence[Tuple[int, int, str, str]] = DEFAULT_POINTS,
    array_bytes: int = PAPER_ARRAY_BYTES,
    array_count: int = DEFAULT_ARRAY_COUNT,
) -> List[PointSpec]:
    """One point per (k, n, senders, psets): a solo point is one query, a
    concurrent one the session of queries ``qA``, ``qB``, ..."""
    from repro.core.measurement import PointSpec

    specs = []
    for key in map(ContentionKey._make, points):
        queries = tuple(
            (f"q{chr(ord('A') + i)}", contending_query(
                1 + i if key.senders == "distinct" else 1, key.n, array_bytes, array_count,
                SHARED_PSET + i if key.psets == "disjoint" else SHARED_PSET,
            ))
            for i in range(key.queries)
        )
        specs.append(PointSpec(
            key=key, query=queries if key.queries > 1 else queries[0][1],
            payload_bytes=key.n * array_bytes * array_count,
        ))
    return specs


def query_mbps(point: BandwidthResult, label: str) -> float:
    """One query's mean Mbps over the repeats of a session point."""
    return statistics.fmean(report[label].mbps for report in point.reports)


def contention_table(result: SweepResult) -> str:
    """Each point's aggregate Mbps and, for a session, every query's."""
    lines = [result.sweep.title, f"{result.sweep.row_header}  {'n':>2}  {'senders':>8}  "
                                 f"{'psets':>8}  {'Mbps':>7}  per query"]
    for key, point in result.points.items():
        labels = [o.label for o in point.reports[0].outcomes] if key.queries > 1 else []
        lines.append((
            f"{key.queries:>2}  {key.n:>2}  {key.senders:>8}  {key.psets:>8}  "
            f"{point.mean_mbps:>7.1f}  "
            + " + ".join(f"{query_mbps(point, label):.1f}" for label in labels)
        ).rstrip())
    return "\n".join(lines)
