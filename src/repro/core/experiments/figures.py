"""The figure table, re-exported as :data:`repro.core.experiments.FIGURES`,
and :class:`Sweep`, the type of its rows."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.experiments.ablations import (
    buffer_choice_specs,
    node_selection_specs,
    node_selection_table,
    optimal_buffer,
)
from repro.core.experiments.contention import DEFAULT_POINTS, contention_specs, contention_table
from repro.core.experiments.fig6 import fig6_specs
from repro.core.experiments.fig8 import balanced_advantage, fig8_specs
from repro.core.experiments.fig15 import fig15_specs
from repro.core.experiments.scaling import scaling_specs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec, SweepResult


class Sweep(NamedTuple):
    """One measured figure, declared as data; measured by
    :func:`repro.core.measurement.run_sweep`.

    The point key of ``specs`` is a module-level ``NamedTuple`` whose field
    names are the sweep's axes; ``row``/``columns`` name them, and the
    format strings read them as ``k`` (``"Q{k.query_number}"``).  A row
    with a bespoke ``table`` is not pivoted and declares no columns.
    """

    specs: Callable[..., List[PointSpec]]  # the pure builder; its defaults are the full sweep
    quick: Mapping[str, Any]  # builder arguments of --quick; a full run passes none
    title: str  # first line of the table
    row: str  # the axis down the side ...
    row_header: str  # ... and its header, padded to the width of that column
    point: str  # format of one point's label in the observability exports
    columns: Tuple[str, ...] = ()  # the pivot's axes across the top, outermost first
    column: str = ""  # format of one pivot column header
    headline: Optional[Callable[[SweepResult], str]] = None  # the line under the table
    table: Optional[Callable[[SweepResult], str]] = None  # a bespoke table instead of the pivot
    gate: Tuple[Mapping[str, Any], ...] = ()  # builder arguments the bench gate samples


#: Figure command -> the sweeps it runs, in print order.
FIGURES: Dict[str, Tuple[Sweep, ...]] = {
    "fig6": (Sweep(
        specs=fig6_specs,
        quick={"buffer_sizes": (200, 500, 1000, 2000, 5000, 100_000), "target_buffers": 300},
        title="Figure 6: intra-BG point-to-point streaming bandwidth (Mbps)",
        row="buffer_bytes", row_header=f"{'buffer':>10}",
        columns=("double_buffering",), column="{k.buffering}",
        point="fig6 B={k.buffer_bytes} {k.buffering}",
        headline=lambda r: (
            f"-> optimum: single={r.best(double_buffering=False)[0].buffer_bytes} B, "
            f"double={r.best(double_buffering=True)[0].buffer_bytes} B"
        ),
        gate=({"buffer_sizes": (200, 1000, 100_000), "target_buffers": 120},),
    ),),
    "fig8": (Sweep(
        specs=fig8_specs,
        quick={"buffer_sizes": (1000, 10_000, 200_000), "target_buffers": 250},
        title="Figure 8: intra-BG stream merging bandwidth at node c (Mbps)",
        row="buffer_bytes", row_header=f"{'buffer':>10}",
        columns=("balanced", "double_buffering"), column="{k.selection}/{k.buffering}",
        point="fig8 B={k.buffer_bytes} {k.selection}/{k.buffering}",
        headline=lambda r: f"-> balanced advantage: {balanced_advantage(r):.2f}x",
        gate=({"buffer_sizes": (100_000,), "target_buffers": 120},),
    ),),
    "fig15": (Sweep(
        specs=fig15_specs,
        quick={"stream_counts": (1, 2, 4, 5), "array_count": 5},
        title="Figure 15: BG inbound streaming bandwidth (Mbps)",
        row="n", row_header=f"{'n':>3}",
        columns=("query_number",), column="Q{k.query_number}",
        point="fig15 Q{k.query_number} n={k.n}",
        headline=lambda r: (
            f"-> Query 5 peak: {r.best(query_number=5)[1].mean_mbps:.0f} Mbps"
        ),
        gate=tuple(
            {"stream_counts": stream_counts, "queries": (query_number,),
             "array_bytes": 300_000, "array_count": 3}
            for stream_counts, query_number in (((2,), 1), ((4, 5), 5))
        ),
    ),),
    "ablations": (
        Sweep(
            specs=node_selection_specs,
            quick={"stream_counts": (4,), "count": 4},
            title="Ablation: automatic node selection (inbound workload, Mbps)",
            row="n", row_header=f"{'n':>3}",
            point="ablation selector={k.selector_name} n={k.n}",
            table=node_selection_table,
        ),
        Sweep(
            specs=buffer_choice_specs,
            quick={"buffer_sizes": (1000, 2000, 100_000)},
            title="Ablation: buffer size by communication pattern (Mbps)",
            row="buffer_bytes", row_header=f"{'buffer':>10}",
            columns=("pattern",), column="{k.pattern}",
            point="ablation buffers {k.pattern} B={k.buffer_bytes}",
            headline=lambda r: (
                f"optimal: p2p={optimal_buffer(r, 'p2p')} B, "
                f"merge={optimal_buffer(r, 'merge')} B"
            ),
        ),
    ),
    "scaling": (Sweep(
        specs=scaling_specs,
        quick={"partitions": (((4, 4, 2), 4), ((4, 4, 4), 8)), "array_count": 3},
        title="Extension: inbound scaling with partition size (Mbps)",
        row="num_io_nodes", row_header=f"{'io-nodes':>9}",
        columns=("uplink_gbps", "query_number"),
        column="Q{k.query_number}@{k.uplink_gbps:g}G",
        point="scaling Q{k.query_number} io={k.num_io_nodes} uplink={k.uplink_gbps:g}G",
    ),),
    "multiquery": (Sweep(
        specs=contention_specs,
        # at most four streams in all, at the full 3 MB x 5 arrays the claims' 1 % needs
        quick={"points": tuple(p for p in DEFAULT_POINTS if p[0] * p[1] <= 4)},
        title="Concurrent queries: k Query-3-shaped CQs of n streams on one environment (Mbps)",
        row="queries", row_header=f"{'k':>2}",
        point="multiquery {k.queries}x{k.n} {k.senders}/{k.psets}",
        table=contention_table,
    ),),
}
