"""Figure 15: BlueGene inbound streaming bandwidth, Queries 1 through 6.

Six ways to inject n parallel array streams from the back-end Linux cluster
into the BlueGene (paper section 3.2), written as the paper's own SCSQL
queries with explicit allocation sequences:

=======  ========================  ==========================
Query    back-end senders          BlueGene receivers
=======  ========================  ==========================
Query 1  one node (``1``)          one compute node
Query 2  spread (``urr('be')``)    one compute node
Query 3  one node                  one pset (``inPset(1)``)
Query 4  spread                    one pset
Query 5  one node                  spread psets (``psetrr()``)
Query 6  spread                    spread psets
=======  ========================  ==========================

Published observations being reproduced:

1. Queries 1-4 (single I/O node) are far below Queries 5-6;
2. Queries 3/4 are slightly better than 1/2 at small n (two receiving
   compute nodes off-load one);
3. Query 5 peaks at ~920 Mbps and beats Query 6;
4. Query 1 beats Query 2 (co-locating back-end RPs wins);
5. Query 5 dips at n=5, where compute nodes start sharing the partition's
   four I/O nodes.
"""

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.engine.settings import ExecutionSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec

#: The paper sweeps the number of parallel back-end streams.
DEFAULT_STREAM_COUNTS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

#: Paper workload per stream: 100 x 3 MB arrays (count scaled for speed).
PAPER_ARRAY_BYTES = 3_000_000
DEFAULT_ARRAY_COUNT = 10

QUERY_NUMBERS = (1, 2, 3, 4, 5, 6)

#: Allocation expressions per query: (back-end allocation, BlueGene allocation
#: for the receiving spv; None = single receiving compute node).
_BE_SINGLE = "1"
_BE_SPREAD = "urr('be')"
_BG_PSET = "inPset(1)"
_BG_SPREAD = "psetrr()"

_QUERY_SHAPES: Dict[int, Tuple[str, Optional[str]]] = {
    1: (_BE_SINGLE, None),
    2: (_BE_SPREAD, None),
    3: (_BE_SINGLE, _BG_PSET),
    4: (_BE_SPREAD, _BG_PSET),
    5: (_BE_SINGLE, _BG_SPREAD),
    6: (_BE_SPREAD, _BG_SPREAD),
}


def inbound_query(query_number: int, n: int, array_bytes: int, count: int) -> str:
    """The SCSQL text of Query ``query_number`` for ``n`` input streams.

    Queries 1/2 merge all streams on one BlueGene compute node; Queries 3-6
    count each stream on its own receiving compute node and sum the counts
    (the paper's exact formulations, section 3.2).
    """
    if query_number not in _QUERY_SHAPES:
        raise ValueError(f"no such inbound query: {query_number}")
    be_alloc, bg_alloc = _QUERY_SHAPES[query_number]
    if bg_alloc is None:
        return f"""
select extract(c) from
bag of sp a, sp b, sp c, integer n
where c=sp(extract(b), 'bg')
and b=sp(count(merge(a)), 'bg')
and a=spv(
  (select gen_array({array_bytes},{count})
   from integer i where i in iota(1,n)),
  'be', {be_alloc})
and n={n};
"""
    return f"""
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
  'bg', {bg_alloc})
and a=spv(
  (select gen_array({array_bytes},{count})
   from integer i where i in iota(1,n)),
  'be', {be_alloc})
and n={n};
"""


class Fig15Key(NamedTuple):
    """One point: one query at one stream count."""

    query_number: int
    n: int


def fig15_specs(
    stream_counts: Sequence[int] = DEFAULT_STREAM_COUNTS,
    queries: Sequence[int] = QUERY_NUMBERS,
    array_bytes: int = PAPER_ARRAY_BYTES,
    array_count: int = DEFAULT_ARRAY_COUNT,
) -> "List[PointSpec]":
    """The Figure 15 sweep: one point per (query, stream count)."""
    from repro.core.measurement import PointSpec

    settings = ExecutionSettings()
    return [
        PointSpec(
            key=Fig15Key(query_number, n),
            query=inbound_query(query_number, n, array_bytes, array_count),
            payload_bytes=n * array_bytes * array_count,
            settings=settings,
        )
        for query_number in queries
        for n in stream_counts
    ]
