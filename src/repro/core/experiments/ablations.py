"""Ablation experiments for the design choices DESIGN.md calls out.

The paper's conclusions sketch how its measurements should change the node
selection algorithm; these ablations close that loop:

* :func:`node_selection_specs` — the same inbound workload placed
  by the *naive* selector ("the next available node") versus the
  :class:`~repro.coordinator.allocation.KnowledgeBasedSelector` built from
  the paper's observations (co-locate back-end senders, spread BlueGene
  receivers over psets).  No allocation sequences: this is what automatic
  placement achieves.
* :func:`buffer_choice_specs` — optimal MPI buffer size per
  communication pattern, quantifying section 5's conclusion that "the
  optimal stream buffer size ... was highly dependent on whether point-to-
  point or merging stream communication was performed".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import BALANCED, merge_query
from repro.engine.settings import ExecutionSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec, SweepResult


def automatic_inbound_query(n: int, array_bytes: int, count: int) -> str:
    """An inbound query with *no* allocation sequences: placement is the
    node selection algorithm's problem."""
    return f"""
select extract(c) from
bag of sp a, bag of sp b, sp c, integer n
where c=sp(streamof(sum(merge(b))), 'bg')
and b=spv(
  (select streamof(count(extract(p)))
   from sp p
   where p in a),
  'bg')
and a=spv(
  (select gen_array({array_bytes},{count})
   from integer i where i in iota(1,n)),
  'be')
and n={n};
"""


class SelectorKey(NamedTuple):
    """One selector at one stream count of the automatic-placement workload."""

    selector_name: str
    n: int


def improvement(result: SweepResult, n: int) -> float:
    """knowledge/naive bandwidth ratio at ``n`` streams."""
    return result.at("knowledge", n).mean_mbps / result.at("naive", n).mean_mbps


def node_selection_table(result: SweepResult) -> str:
    """Naive vs knowledge-based placement side by side (means only) with
    their ratio — the one table that is a comparison, not a pivot."""
    lines = [
        result.sweep.title,
        f"{result.sweep.row_header}  {'naive':>14}  {'knowledge':>14}  {'ratio':>6}",
    ]
    for n in sorted({key.n for key in result.points}):
        naive = result.at("naive", n).mean_mbps
        knowledge = result.at("knowledge", n).mean_mbps
        lines.append(
            f"{n:>3}  {naive:>14.1f}  {knowledge:>14.1f}  {knowledge / naive:>6.2f}"
        )
    return "\n".join(lines)


#: Stream counts and per-stream workload of the node-selection ablation.
DEFAULT_STREAM_COUNTS: Tuple[int, ...] = (2, 4, 6, 8)
DEFAULT_ARRAY_BYTES = 3_000_000
DEFAULT_ARRAY_COUNT = 10


def node_selection_specs(
    stream_counts: Sequence[int] = DEFAULT_STREAM_COUNTS,
    array_bytes: int = DEFAULT_ARRAY_BYTES,
    count: int = DEFAULT_ARRAY_COUNT,
) -> List[PointSpec]:
    """The node-selection sweep: the automatic-placement workload under
    each selector."""
    from repro.core.measurement import PointSpec

    return [
        PointSpec(
            key=SelectorKey(selector_name, n),
            query=automatic_inbound_query(n, array_bytes, count),
            payload_bytes=n * array_bytes * count,
            settings=None,
            selector=selector_name,
        )
        for n in stream_counts
        for selector_name in ("naive", "knowledge")
    ]


# ----------------------------------------------------------------------
# Buffer-size choice per communication pattern
# ----------------------------------------------------------------------
class BufferChoiceKey(NamedTuple):
    """One communication pattern (``"p2p"`` | ``"merge"``) at one buffer size."""

    pattern: str
    buffer_bytes: int


def optimal_buffer(result: SweepResult, pattern: str) -> int:
    """The buffer size maximizing mean bandwidth for a pattern."""
    return result.best(pattern=pattern)[0].buffer_bytes


#: Buffer sizes swept by the buffer-choice ablation.
DEFAULT_BUFFER_SIZES: Tuple[int, ...] = (500, 1000, 2000, 10_000, 100_000, 1_000_000)


#: Pattern -> (its query over ``(array_bytes, count)``, streams it sends).
_PATTERNS = {
    "p2p": (point_to_point_query, 1),
    "merge": (lambda array_bytes, count: merge_query(array_bytes, count, *BALANCED), 2),
}


def buffer_choice_specs(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
) -> List[PointSpec]:
    """The buffer-choice sweep: both patterns at every buffer size
    (balanced nodes, double buffers)."""
    from repro.core.measurement import PointSpec

    specs: List[PointSpec] = []
    for pattern, (query, streams) in _PATTERNS.items():
        for buffer_bytes in buffer_sizes:
            array_bytes, count = scaled_workload(buffer_bytes, target_buffers=800)
            specs.append(
                PointSpec(
                    key=BufferChoiceKey(pattern, buffer_bytes),
                    query=query(array_bytes, count),
                    payload_bytes=streams * array_bytes * count,
                    settings=ExecutionSettings(
                        mpi_buffer_bytes=buffer_bytes, double_buffering=True
                    ),
                )
            )
    return specs
