"""Figure 6: intra-BlueGene point-to-point streaming bandwidth.

The measured query is the paper's Figure 5 set-up: ``a`` generates a finite
stream of large arrays on BlueGene compute node 1, ``b`` counts them on
node 0, and only the count leaves the BlueGene — "the total time measured
is dominated by the time for streaming the data from a to b".  The buffer
size of the MPI stream carrier is swept, with single and double buffering.

Published shape being reproduced:

* optimal buffer size is 1000 bytes for both buffering modes;
* bandwidth falls for smaller buffers (1 KB minimum torus message) and for
  larger buffers (cache misses);
* double buffering pays off for large buffers.

Runs are volume-scaled: the paper streams 100 x 3 MB; the simulation keeps
the per-run buffer count near a target instead, which leaves steady-state
bandwidth unchanged while keeping small-buffer sweeps tractable.
"""

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from repro.engine.settings import ExecutionSettings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec

#: Buffer sizes swept by default (log-spaced 100 B .. 1 MB, as in Figure 6).
DEFAULT_BUFFER_SIZES: Tuple[int, ...] = (
    100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 50_000,
    100_000, 200_000, 500_000, 1_000_000,
)

#: Buffers streamed per run (see :func:`scaled_workload`).
DEFAULT_TARGET_BUFFERS = 1500

#: Paper workload: 100 arrays of 3 MB.
PAPER_ARRAY_BYTES = 3_000_000
PAPER_ARRAY_COUNT = 100


def point_to_point_query(array_bytes: int, count: int) -> str:
    """The paper's intra-BG point-to-point SCSQL query (section 3.1)."""
    return f"""
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg', 0)
and a=sp(gen_array({array_bytes},{count}), 'bg', 1);
"""


def scaled_workload(
    buffer_bytes: int,
    target_buffers: int = DEFAULT_TARGET_BUFFERS,
) -> Tuple[int, int]:
    """(array_bytes, count) streaming roughly ``target_buffers`` buffers.

    Steady-state bandwidth is volume-independent, so runs are scaled to a
    fixed buffer count: small-buffer points use smaller arrays (otherwise a
    single 3 MB array would fragment into 30,000 simulation events at
    B=100), large-buffer points use the paper's 3 MB arrays.
    """
    count = 8
    array_bytes = (buffer_bytes * target_buffers) // count
    array_bytes = max(30_000, min(PAPER_ARRAY_BYTES, array_bytes))
    return array_bytes, count


class Fig6Key(NamedTuple):
    """One point of the Figure 6 curves."""

    buffer_bytes: int
    double_buffering: bool

    @property
    def buffering(self) -> str:
        return "double" if self.double_buffering else "single"


def fig6_specs(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    target_buffers: int = DEFAULT_TARGET_BUFFERS,
) -> "List[PointSpec]":
    """The Figure 6 sweep: one point per (buffer size, buffering mode)."""
    from repro.core.measurement import PointSpec

    specs: List[PointSpec] = []
    for buffer_bytes in buffer_sizes:
        array_bytes, count = scaled_workload(buffer_bytes, target_buffers)
        query = point_to_point_query(array_bytes, count)
        for double_buffering in (False, True):
            settings = ExecutionSettings(
                mpi_buffer_bytes=buffer_bytes, double_buffering=double_buffering
            )
            specs.append(
                PointSpec(
                    key=Fig6Key(buffer_bytes, double_buffering),
                    query=query,
                    payload_bytes=array_bytes * count,
                    settings=settings,
                )
            )
    return specs
