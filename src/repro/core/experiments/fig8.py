"""Figure 8: intra-BlueGene stream merging under two node selections.

Two generator RPs (``a``, ``b``) stream arrays to a counting RP ``c`` that
merges them.  The paper's Figure 7 topologies are selected with explicit
allocation sequences:

* **sequential** (7A): x=1, y=2 — nodes 0,1,2 in a torus line, so traffic
  from b is routed through a's (busy) communication co-processor;
* **balanced** (7B): x=1, y=4 — a and b are torus neighbours of c in
  different dimensions, so both streams arrive over independent channels.

Published shape being reproduced:

1. bandwidth depends strongly on the node selection (balanced wins, up to
   ~60% — section 5);
2. double buffering matters less than for point-to-point streaming;
3. buffers below ~10 KB are much slower for merging than point-to-point.
"""

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from repro.core.experiments.fig6 import scaled_workload
from repro.engine.settings import ExecutionSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec, SweepResult

#: Buffer sizes swept by default (Figure 8 reaches further right).
DEFAULT_BUFFER_SIZES: Tuple[int, ...] = (
    1000, 2000, 5000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000, 1_000_000,
)

#: Buffers each generator streams per run (see
#: :func:`~repro.core.experiments.fig6.scaled_workload`).
DEFAULT_TARGET_BUFFERS = 1200

#: Node selections of Figure 7 (x, y): sequential routes b through a.
SEQUENTIAL = (1, 2)
BALANCED = (1, 4)


def merge_query(array_bytes: int, count: int, x: int, y: int) -> str:
    """The paper's stream-merging SCSQL query (section 3.1)."""
    return f"""
select extract(c)
from sp a, sp b, sp c
where c=sp(count(merge({{a,b}})), 'bg', 0)
and a=sp(gen_array({array_bytes},{count}), 'bg', {x})
and b=sp(gen_array({array_bytes},{count}), 'bg', {y});
"""


class Fig8Key(NamedTuple):
    """One point of the Figure 8 curves."""

    buffer_bytes: int
    balanced: bool
    double_buffering: bool

    @property
    def selection(self) -> str:
        return "bal" if self.balanced else "seq"

    @property
    def buffering(self) -> str:
        return "double" if self.double_buffering else "single"


def balanced_advantage(result: "SweepResult", double_buffering: bool = True) -> float:
    """Largest balanced/sequential ratio at any common buffer size.

    This is the paper's "stream merging performs up to 60% better if no
    busy intermediate nodes are involved" — the comparison is between
    the two node selections under otherwise identical settings.
    """
    sequential, balanced = (
        {
            key.buffer_bytes: point.mean_mbps
            for key, point in result.curve(
                balanced=selection, double_buffering=double_buffering
            )
        }
        for selection in (False, True)
    )
    common = set(sequential) & set(balanced)
    if not common:
        raise ValueError("no common buffer sizes between the two curves")
    return max(balanced[size] / sequential[size] for size in common)


def fig8_specs(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    target_buffers: int = DEFAULT_TARGET_BUFFERS,
) -> "List[PointSpec]":
    """The Figure 8 sweep: one point per (buffer size, node selection,
    buffering mode)."""
    from repro.core.measurement import PointSpec

    specs: List[PointSpec] = []
    for buffer_bytes in buffer_sizes:
        array_bytes, count = scaled_workload(buffer_bytes, target_buffers)
        for balanced in (False, True):
            x, y = BALANCED if balanced else SEQUENTIAL
            query = merge_query(array_bytes, count, x, y)
            for double_buffering in (False, True):
                settings = ExecutionSettings(
                    mpi_buffer_bytes=buffer_bytes, double_buffering=double_buffering
                )
                specs.append(
                    PointSpec(
                        key=Fig8Key(buffer_bytes, balanced, double_buffering),
                        query=query,
                        payload_bytes=2 * array_bytes * count,
                        settings=settings,
                    )
                )
    return specs
