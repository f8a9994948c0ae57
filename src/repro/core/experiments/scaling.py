"""``scaling``: the I/O-node/uplink sweep, not the 4096-node concurrent-session gate (``scale``).

Extension: inbound-bandwidth scaling with larger partitions (future work).

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

from typing import TYPE_CHECKING, List, NamedTuple, Sequence, Tuple

from repro.core.experiments.fig15 import PAPER_ARRAY_BYTES, inbound_query
from repro.engine.settings import ExecutionSettings
from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig
from repro.net.params import NetworkParams
from repro.util.units import gbps

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.measurement import PointSpec

#: Partition sizes swept: (torus shape, number of psets/I-O/back-end nodes).
DEFAULT_PARTITIONS: Tuple[Tuple[Tuple[int, int, int], int], ...] = (
    ((4, 4, 2), 4),
    ((4, 4, 4), 8),
    ((8, 4, 4), 16),
)

#: Uplink rates swept: the testbed's 1 Gbps and a hypothetical upgrade.
DEFAULT_UPLINKS_GBPS: Tuple[float, ...] = (1.0, 10.0)


class ScalingKey(NamedTuple):
    """One point of the scaling study."""

    query_number: int
    num_io_nodes: int
    uplink_gbps: float


def _environment(
    shape: Tuple[int, int, int], backend_nodes: int, uplink_gbps: float
) -> EnvironmentConfig:
    base = NetworkParams()
    params = base.with_overrides(
        ethernet=base.ethernet.replace(uplink_rate=gbps(uplink_gbps))
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


def scaling_specs(
    partitions: Sequence[Tuple[Tuple[int, int, int], int]] = DEFAULT_PARTITIONS,
    uplinks_gbps: Sequence[float] = DEFAULT_UPLINKS_GBPS,
    queries: Sequence[int] = DEFAULT_QUERIES,
    array_bytes: int = PAPER_ARRAY_BYTES,
    array_count: int = DEFAULT_ARRAY_COUNT,
) -> List[PointSpec]:
    """The scaling study: one point per (partition, uplink, query), each on
    the environment of its (partition, uplink) pair."""
    from repro.core.measurement import PointSpec

    settings = ExecutionSettings()
    return [
        PointSpec(
            key=ScalingKey(query_number, num_io, uplink),
            # one stream per I/O node: the Figure 15 sweet spot
            query=inbound_query(query_number, num_io, array_bytes, array_count),
            payload_bytes=num_io * array_bytes * array_count,
            settings=settings,
            env_config=_environment(shape, num_io, uplink),
        )
        for shape, num_io in partitions
        for uplink in uplinks_gbps
        for query_number in queries
    ]
