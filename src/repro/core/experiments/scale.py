"""``scale``: the 4096-node concurrent-session gate, not the I/O-node/uplink sweep (``scaling``).

ROADMAP's north star asks for sweeps "as fast as the hardware allows" far
past the paper's 8–16 node figures.  This experiment runs the simulator at
two orders of magnitude more hardware than any paper figure: hundreds to
thousands of point-to-point stream queries submitted to one
:class:`~repro.core.multiquery.MultiQuerySession` on a 16x16x16 BlueGene
partition (4096 compute nodes, 512 psets).  Placement is index-free
(``'bg'`` with no node index), so the deployer's round-robin allocation
spreads the streams across the whole partition deterministically.  The
aggregate bandwidth is simulated and seeded, hence bit-stable and gated
like every other BENCH key.  Host time of this workload is the ledger's
(``benchmarks/ledger``, workload ``mqs_scale``), not this module's.

The run also asserts the bounded route memo stays bounded: a 16x16x16
torus has 16.7M ordered node pairs, and the pre-bound table would grow
without limit as placements spread.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.multiquery import MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.util.errors import MeasurementError
from repro.util.record import Frozen

#: The scale partition: 4096 compute nodes, 512 psets — 10x+ the number of
#: nodes any paper figure touches.
DEFAULT_SHAPE: Tuple[int, int, int] = (16, 16, 16)

#: Concurrent stream queries in the session.
DEFAULT_QUERIES = 1024

#: Per-query workload (volume kept small: the point is concurrency).
DEFAULT_ARRAY_BYTES = 100_000
DEFAULT_ARRAY_COUNT = 2

#: MPI buffer size for the session's streams (20 buffers per query).
DEFAULT_BUFFER_BYTES = 10_000

#: Ceiling for the bounded route memo's resident size on the scale run.
ROUTE_MEMO_BYTES_CEILING = 32 * 1024 * 1024


def scale_config(shape: Tuple[int, int, int] = DEFAULT_SHAPE) -> EnvironmentConfig:
    """Environment config for a scale-run torus of ``shape``."""
    return EnvironmentConfig(bluegene=BlueGeneConfig(torus_shape=shape))


def scale_stream_query(array_bytes: int, count: int) -> str:
    """An index-free intra-BG point-to-point stream query.

    Unlike Figure 6's query, neither stream process names a node index:
    every submission lets the deployer's round-robin allocation pick the
    next free pair, so repeated submits of one compiled plan tile the
    partition instead of colliding on nodes 0 and 1.
    """
    return f"""
select extract(b)
from sp a, sp b
where b=sp(streamof(count(extract(a))), 'bg')
and a=sp(gen_array({array_bytes},{count}), 'bg');
"""


class ScaleResult(Frozen):
    """What one scale run measured."""

    shape: Tuple[int, int, int]
    mqs_queries: int
    mqs_events: int
    mqs_mbps: float
    route_entries: int
    route_memo_bytes: int
    __slots__ = ("shape", "mqs_queries", "mqs_events", "mqs_mbps", "route_entries",
                 "route_memo_bytes")

    def __init__(self, shape: Tuple[int, int, int], mqs_queries: int, mqs_events: int,
                 mqs_mbps: float, route_entries: int, route_memo_bytes: int) -> None:
        self._set_fields(shape, mqs_queries, mqs_events, mqs_mbps, route_entries, route_memo_bytes)

    @property
    def figure(self) -> str:
        x, y, z = self.shape
        return f"scale[torus={x}x{y}x{z}]"

    def metrics(self) -> Dict[str, float]:
        """The BENCH metric family of this run.

        ``mqs_mbps`` is simulated (seeded, bit-stable).  The memory
        footprint is asserted inside :func:`run_scale`, not gated — a
        *smaller* memo must never read as a regression.
        """
        return {f"{self.figure}/mqs_mbps": self.mqs_mbps}


def _scaled_defaults(shape: Tuple[int, int, int]) -> int:
    """Concurrent queries matched to the partition size.

    The full 4096-node shape runs the headline workload; smaller smoke
    shapes (CI runs an 8x8x8) scale the concurrency down with the node
    count so the figure stays a few seconds.
    """
    nodes = shape[0] * shape[1] * shape[2]
    return min(DEFAULT_QUERIES, max(nodes // 4, 16))


def run_scale(
    shape: Tuple[int, int, int] = DEFAULT_SHAPE,
    queries: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ScaleResult:
    """Run the scale figure and return its measurements.

    The session forks the shared 4096-node topology template instead of
    rebuilding it.  Raises :class:`~repro.util.errors.MeasurementError` if
    the bounded route memo exceeds its entry bound or
    :data:`ROUTE_MEMO_BYTES_CEILING`.
    """
    if queries is None:
        queries = _scaled_defaults(shape)
    template = shared_template(scale_config(shape))

    # Concurrent continuous queries on the shared partition.
    plan = compile_plan(scale_stream_query(DEFAULT_ARRAY_BYTES, DEFAULT_ARRAY_COUNT))
    settings = ExecutionSettings(
        mpi_buffer_bytes=DEFAULT_BUFFER_BYTES, double_buffering=True
    )
    env = template.fork(seed=0)
    session = MultiQuerySession(env, settings=settings)
    payload = DEFAULT_ARRAY_BYTES * DEFAULT_ARRAY_COUNT
    for index in range(queries):
        session.submit(plan, payload_bytes=payload, label=f"s{index}")
    result = session.run()
    session.teardown()
    mqs_mbps = sum(outcome.mbps for outcome in result.outcomes)
    mqs_events = env.sim.events_dispatched
    if progress is not None:
        progress(
            f"scale multiquery: {queries} queries, {mqs_events} events, "
            f"aggregate {mqs_mbps:.0f} Mbps"
        )

    routes = template.routes
    route_entries = len(routes)
    route_bytes = routes.approx_bytes()
    if route_entries > routes.max_entries:
        raise MeasurementError(
            f"route memo exceeded its bound: {route_entries} entries "
            f"> max_entries={routes.max_entries}"
        )
    if route_bytes > ROUTE_MEMO_BYTES_CEILING:
        raise MeasurementError(
            f"route memo footprint {route_bytes} B exceeds the "
            f"{ROUTE_MEMO_BYTES_CEILING} B scale ceiling"
        )

    return ScaleResult(
        shape=shape,
        mqs_queries=queries,
        mqs_events=mqs_events,
        mqs_mbps=mqs_mbps,
        route_entries=route_entries,
        route_memo_bytes=route_bytes,
    )
