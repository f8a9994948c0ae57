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

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.experiments.fig6 import scaled_workload
from repro.core.measurement import BandwidthResult, PointSpec, measure_points
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig
from repro.obs.instrument import OBSERVE_NONE

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


@dataclass(frozen=True)
class Fig8Point:
    """One measured point of the Figure 8 curves."""

    buffer_bytes: int
    balanced: bool
    double_buffering: bool
    result: BandwidthResult

    @property
    def mbps(self) -> float:
        return self.result.mean_mbps


@dataclass
class Fig8Result:
    """The Figure 8 sweep: four curves (selection x buffering mode)."""

    points: List[Fig8Point]

    def curve(self, balanced: bool, double_buffering: bool) -> List[Fig8Point]:
        selected = [
            p
            for p in self.points
            if p.balanced is balanced and p.double_buffering is double_buffering
        ]
        return sorted(selected, key=lambda p: p.buffer_bytes)

    def best(self, balanced: bool, double_buffering: bool) -> Fig8Point:
        return max(self.curve(balanced, double_buffering), key=lambda p: p.mbps)

    def balanced_advantage(self, double_buffering: bool = True) -> float:
        """Largest balanced/sequential ratio at any common buffer size.

        This is the paper's "stream merging performs up to 60% better if no
        busy intermediate nodes are involved" — the comparison is between
        the two node selections under otherwise identical settings.
        """
        sequential = {p.buffer_bytes: p.mbps for p in self.curve(False, double_buffering)}
        balanced = {p.buffer_bytes: p.mbps for p in self.curve(True, double_buffering)}
        common = set(sequential) & set(balanced)
        if not common:
            raise ValueError("no common buffer sizes between the two curves")
        return max(balanced[size] / sequential[size] for size in common)

    def format_table(self) -> str:
        """Figure 8 as text: total input bandwidth at c (Mbps)."""
        lines = [
            "Figure 8: intra-BG stream merging bandwidth at node c (Mbps)",
            f"{'buffer':>10}  {'seq/single':>14}  {'seq/double':>14}"
            f"  {'bal/single':>14}  {'bal/double':>14}",
        ]
        sizes = sorted({p.buffer_bytes for p in self.points})
        table = {
            (p.buffer_bytes, p.balanced, p.double_buffering): p for p in self.points
        }
        for size in sizes:
            cells = []
            for balanced in (False, True):
                for double in (False, True):
                    point = table.get((size, balanced, double))
                    cells.append(str(point.result) if point else "-")
            lines.append(
                f"{size:>10}  {cells[0]:>14}  {cells[1]:>14}  {cells[2]:>14}  {cells[3]:>14}"
            )
        return "\n".join(lines)


def fig8_specs(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    target_buffers: int = DEFAULT_TARGET_BUFFERS,
) -> List[PointSpec]:
    """The Figure 8 sweep: one point per (buffer size, node selection,
    buffering mode), keyed ``(buffer_bytes, balanced, double_buffering)``."""
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
                        key=(buffer_bytes, balanced, double_buffering),
                        query=query,
                        payload_bytes=2 * array_bytes * count,
                        settings=settings,
                    )
                )
    return specs


def run_fig8(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    repeats: int = 5,
    target_buffers: int = DEFAULT_TARGET_BUFFERS,
    env_config: Optional[EnvironmentConfig] = None,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
) -> Fig8Result:
    """Run the Figure 8 sweep and return all four curves.

    ``jobs`` and ``observe`` are those of
    :func:`repro.core.measurement.measure_points`; each repeat's hub lands on
    its point's ``result.observations``.
    """
    specs = fig8_specs(buffer_sizes, target_buffers)
    results = measure_points(
        specs, repeats=repeats, env_config=env_config, jobs=jobs, observe=observe
    )
    return Fig8Result(
        points=[
            Fig8Point(
                buffer_bytes=buffer_bytes,
                balanced=balanced,
                double_buffering=double_buffering,
                result=results[(buffer_bytes, balanced, double_buffering)],
            )
            for (buffer_bytes, balanced, double_buffering) in (s.key for s in specs)
        ]
    )
