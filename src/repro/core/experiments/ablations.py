"""Ablation experiments for the design choices DESIGN.md calls out.

The paper's conclusions sketch how its measurements should change the node
selection algorithm; these ablations close that loop:

* :func:`run_node_selection_ablation` — the same inbound workload placed
  by the *naive* selector ("the next available node") versus the
  :class:`~repro.coordinator.allocation.KnowledgeBasedSelector` built from
  the paper's observations (co-locate back-end senders, spread BlueGene
  receivers over psets).  No allocation sequences: this is what automatic
  placement achieves.
* :func:`run_buffer_choice_ablation` — optimal MPI buffer size per
  communication pattern, quantifying section 5's conclusion that "the
  optimal stream buffer size ... was highly dependent on whether point-to-
  point or merging stream communication was performed".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import merge_query
from repro.core.measurement import BandwidthResult, PointSpec, measure_points
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig
from repro.obs.instrument import OBSERVE_NONE, Instrumentation
from repro.util.stats import MeasurementStats


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


@dataclass
class SelectorResult:
    """Bandwidth of one selector on the automatic-placement workload."""

    selector_name: str
    n: int
    mbps: MeasurementStats
    observations: List[Instrumentation] = field(default_factory=list)


@dataclass
class NodeSelectionAblation:
    """Naive vs knowledge-based automatic placement."""

    results: List[SelectorResult]

    def mean(self, selector_name: str, n: int) -> float:
        for result in self.results:
            if result.selector_name == selector_name and result.n == n:
                return result.mbps.mean
        raise KeyError(f"no result for {selector_name!r}, n={n}")

    def improvement(self, n: int) -> float:
        """knowledge/naive bandwidth ratio at ``n`` streams."""
        return self.mean("knowledge", n) / self.mean("naive", n)

    def format_table(self) -> str:
        ns = sorted({r.n for r in self.results})
        lines = [
            "Ablation: automatic node selection (inbound workload, Mbps)",
            f"{'n':>3}  {'naive':>14}  {'knowledge':>14}  {'ratio':>6}",
        ]
        for n in ns:
            naive = self.mean("naive", n)
            knowledge = self.mean("knowledge", n)
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
    each selector, keyed ``(selector_name, n)``."""
    return [
        PointSpec(
            key=(selector_name, n),
            query=automatic_inbound_query(n, array_bytes, count),
            payload_bytes=n * array_bytes * count,
            settings=None,
            selector=selector_name,
        )
        for n in stream_counts
        for selector_name in ("naive", "knowledge")
    ]


def run_node_selection_ablation(
    stream_counts: Sequence[int] = DEFAULT_STREAM_COUNTS,
    repeats: int = 3,
    array_bytes: int = DEFAULT_ARRAY_BYTES,
    count: int = DEFAULT_ARRAY_COUNT,
    env_config: Optional[EnvironmentConfig] = None,
    base_seed: int = 0,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
) -> NodeSelectionAblation:
    """Compare naive and knowledge-based automatic placement.

    Every (selector, n, repeat) simulation is one sweep task, the selector
    named declaratively in its payload.
    """
    specs = node_selection_specs(stream_counts, array_bytes, count)
    table = measure_points(
        specs, repeats=repeats, env_config=env_config, base_seed=base_seed,
        jobs=jobs, observe=observe,
    )
    return NodeSelectionAblation(
        results=[
            SelectorResult(
                selector_name=selector_name,
                n=n,
                mbps=table[(selector_name, n)].mbps,
                observations=table[(selector_name, n)].observations,
            )
            for (selector_name, n) in (spec.key for spec in specs)
        ]
    )


# ----------------------------------------------------------------------
# Buffer-size choice per communication pattern
# ----------------------------------------------------------------------
@dataclass
class BufferChoiceAblation:
    """Optimal buffer size for point-to-point vs merging streams."""

    p2p: Dict[int, BandwidthResult]
    merge: Dict[int, BandwidthResult]

    def optimal_buffer(self, pattern: str) -> int:
        """The buffer size maximizing mean bandwidth for a pattern."""
        table = {"p2p": self.p2p, "merge": self.merge}[pattern]
        return max(table, key=lambda size: table[size].mean_mbps)

    def format_table(self) -> str:
        sizes = sorted(set(self.p2p) | set(self.merge))
        lines = [
            "Ablation: buffer size by communication pattern (Mbps)",
            f"{'buffer':>10}  {'p2p':>14}  {'merge':>14}",
        ]
        for size in sizes:
            p = self.p2p.get(size)
            m = self.merge.get(size)
            lines.append(
                f"{size:>10}  {str(p) if p else '-':>14}  {str(m) if m else '-':>14}"
            )
        lines.append(
            f"optimal: p2p={self.optimal_buffer('p2p')} B, "
            f"merge={self.optimal_buffer('merge')} B"
        )
        return "\n".join(lines)


#: Buffer sizes swept by the buffer-choice ablation.
DEFAULT_BUFFER_SIZES: Tuple[int, ...] = (500, 1000, 2000, 10_000, 100_000, 1_000_000)


def buffer_choice_specs(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
) -> List[PointSpec]:
    """The buffer-choice sweep: both patterns at every buffer size
    (balanced nodes, double buffers), keyed ``(pattern, buffer_bytes)``."""
    specs: List[PointSpec] = []
    for buffer_bytes in buffer_sizes:
        array_bytes, count = scaled_workload(buffer_bytes, target_buffers=800)
        settings = ExecutionSettings(mpi_buffer_bytes=buffer_bytes, double_buffering=True)
        specs.append(
            PointSpec(
                key=("p2p", buffer_bytes),
                query=point_to_point_query(array_bytes, count),
                payload_bytes=array_bytes * count,
                settings=settings,
            )
        )
        specs.append(
            PointSpec(
                key=("merge", buffer_bytes),
                query=merge_query(array_bytes, count, 1, 4),
                payload_bytes=2 * array_bytes * count,
                settings=settings,
            )
        )
    return specs


def run_buffer_choice_ablation(
    buffer_sizes: Sequence[int] = DEFAULT_BUFFER_SIZES,
    repeats: int = 3,
    env_config: Optional[EnvironmentConfig] = None,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
) -> BufferChoiceAblation:
    """Sweep buffer sizes for both patterns (balanced nodes, double buffers)."""
    specs = buffer_choice_specs(buffer_sizes)
    table = measure_points(
        specs, repeats=repeats, env_config=env_config, jobs=jobs, observe=observe
    )
    return BufferChoiceAblation(
        p2p={size: table[("p2p", size)]
             for (kind, size) in (s.key for s in specs) if kind == "p2p"},
        merge={size: table[("merge", size)]
               for (kind, size) in (s.key for s in specs) if kind == "merge"},
    )
