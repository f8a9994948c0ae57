"""Extension: inbound-bandwidth scaling with larger partitions (future work).

Paper section 5: "In the current hardware configuration, we have only four
I/O nodes and four nodes in the back-end cluster.  It remains to be
investigated what happens for large amounts of back-end and I/O nodes."

This experiment grows the simulated partition (4 -> 8 -> 16 psets/I-O
nodes, with matching back-end clusters) and measures the two best inbound
topologies from Figure 15 — Query 5 (one back-end host, spread psets) and
Query 6 (spread hosts, spread psets) — at n = number of I/O nodes.  It is
run under the stock 1 Gbps switch uplink and under a hypothetical 10 Gbps
uplink, which answers the question the paper leaves open:

* with the 2007-era 1 Gbps uplink, adding I/O nodes beyond ~2 buys nothing
  (the shared switch port is the ceiling);
* with a faster uplink, the spread-host topology scales with the partition
  until the receiving compute nodes become the bottleneck, while the
  single-host topology stays pinned at one back-end NIC.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple

from repro.core.experiments.fig15 import PAPER_ARRAY_BYTES, inbound_query
from repro.core.measurement import BandwidthResult, PointSpec, measure_points
from repro.engine.settings import ExecutionSettings
from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig
from repro.net.params import NetworkParams
from repro.obs.instrument import OBSERVE_NONE
from repro.util.units import gbps

#: Partition sizes swept: (torus shape, number of psets/I-O/back-end nodes).
DEFAULT_PARTITIONS: Tuple[Tuple[Tuple[int, int, int], int], ...] = (
    ((4, 4, 2), 4),
    ((4, 4, 4), 8),
    ((8, 4, 4), 16),
)

#: Uplink rates swept: the testbed's 1 Gbps and a hypothetical upgrade.
DEFAULT_UPLINKS_GBPS: Tuple[float, ...] = (1.0, 10.0)


@dataclass(frozen=True)
class ScalingPoint:
    """One measured point of the scaling study."""

    query_number: int
    num_io_nodes: int
    uplink_gbps: float
    result: BandwidthResult

    @property
    def mbps(self) -> float:
        return self.result.mean_mbps


@dataclass
class ScalingStudy:
    """Inbound peak bandwidth as the partition grows."""

    points: List[ScalingPoint]

    def at(self, query_number: int, num_io_nodes: int, uplink_gbps: float) -> ScalingPoint:
        for point in self.points:
            if (
                point.query_number == query_number
                and point.num_io_nodes == num_io_nodes
                and point.uplink_gbps == uplink_gbps
            ):
                return point
        raise KeyError(
            f"no point for query {query_number}, {num_io_nodes} I/O nodes, "
            f"{uplink_gbps} Gbps uplink"
        )

    def format_table(self) -> str:
        sizes = sorted({p.num_io_nodes for p in self.points})
        uplinks = sorted({p.uplink_gbps for p in self.points})
        queries = sorted({p.query_number for p in self.points})
        lines = ["Extension: inbound scaling with partition size (Mbps)"]
        header = f"{'io-nodes':>9}"
        for uplink in uplinks:
            for q in queries:
                header += f"  {'Q%d@%gG' % (q, uplink):>14}"
        lines.append(header)
        for size in sizes:
            row = f"{size:>9}"
            for uplink in uplinks:
                for q in queries:
                    try:
                        row += f"  {str(self.at(q, size, uplink).result):>14}"
                    except KeyError:
                        row += f"  {'-':>14}"
            lines.append(row)
        return "\n".join(lines)


def _environment(
    shape: Tuple[int, int, int], backend_nodes: int, uplink_gbps: float
) -> EnvironmentConfig:
    base = NetworkParams()
    params = base.with_overrides(
        ethernet=replace(base.ethernet, uplink_rate=gbps(uplink_gbps))
    )
    return EnvironmentConfig(
        bluegene=BlueGeneConfig(torus_shape=shape),
        backend_nodes=backend_nodes,
        params=params,
    )


#: Queries swept (the two best inbound topologies of Figure 15) and the
#: arrays each stream sends.
DEFAULT_QUERIES: Tuple[int, ...] = (5, 6)
DEFAULT_ARRAY_COUNT = 5


def scaling_sweeps(
    partitions: Sequence[Tuple[Tuple[int, int, int], int]] = DEFAULT_PARTITIONS,
    uplinks_gbps: Sequence[float] = DEFAULT_UPLINKS_GBPS,
    queries: Sequence[int] = DEFAULT_QUERIES,
    array_bytes: int = PAPER_ARRAY_BYTES,
    array_count: int = DEFAULT_ARRAY_COUNT,
) -> List[Tuple[EnvironmentConfig, List[PointSpec]]]:
    """The scaling study: one ``(environment, specs)`` sweep per
    (partition, uplink) pair, its points keyed
    ``(query_number, num_io_nodes, uplink_gbps)``."""
    settings = ExecutionSettings()
    return [
        (
            _environment(shape, num_io, uplink),
            [
                PointSpec(
                    key=(query_number, num_io, uplink),
                    # one stream per I/O node: the Figure 15 sweet spot
                    query=inbound_query(query_number, num_io, array_bytes, array_count),
                    payload_bytes=num_io * array_bytes * array_count,
                    settings=settings,
                )
                for query_number in queries
            ],
        )
        for shape, num_io in partitions
        for uplink in uplinks_gbps
    ]


def run_scaling_study(
    partitions: Sequence[Tuple[Tuple[int, int, int], int]] = DEFAULT_PARTITIONS,
    uplinks_gbps: Sequence[float] = DEFAULT_UPLINKS_GBPS,
    queries: Sequence[int] = DEFAULT_QUERIES,
    repeats: int = 3,
    array_bytes: int = PAPER_ARRAY_BYTES,
    array_count: int = DEFAULT_ARRAY_COUNT,
    jobs: int = 1,
    observe: str = OBSERVE_NONE,
) -> ScalingStudy:
    """Measure inbound peak bandwidth across partition sizes and uplinks.

    Each (partition, uplink) pair is its own environment shape and so its
    own :func:`~repro.core.measurement.measure_points` sweep: with
    ``jobs > 1`` its queries and repeats run in parallel (pairs stay
    sequential).
    """
    points: List[ScalingPoint] = []
    for env_config, specs in scaling_sweeps(
        partitions, uplinks_gbps, queries, array_bytes, array_count
    ):
        results = measure_points(
            specs, repeats=repeats, env_config=env_config, jobs=jobs, observe=observe
        )
        points.extend(
            ScalingPoint(
                query_number=query_number,
                num_io_nodes=num_io,
                uplink_gbps=uplink,
                result=results[(query_number, num_io, uplink)],
            )
            for (query_number, num_io, uplink) in (spec.key for spec in specs)
        )
    return ScalingStudy(points=points)
