"""Scale figure: the DES kernel driven at a 4096-node torus.

ROADMAP's north star asks for sweeps "as fast as the hardware allows" far
past the paper's 8–16 node figures.  This experiment proves the kernel
holds up at two orders of magnitude more hardware than any paper figure:

* **Kernel throughput** — thousands of concurrent stream timers ticking in
  synchronized bursts on one simulator (the calendar queue's target access
  pattern: every tick instant is one huge same-timestamp bucket).  Reported
  as ``events_per_sec``, the headline number the scheduler rewrite moves;
  the BENCH gate compares it under the wall-clock tolerance.

* **Concurrent continuous queries** — hundreds to thousands of
  point-to-point stream queries submitted to one
  :class:`~repro.core.multiquery.MultiQuerySession` on a 16x16x16 BlueGene
  partition (4096 compute nodes, 512 psets).  Placement is index-free
  (``'bg'`` with no node index), so the deployer's round-robin allocation
  spreads the streams across the whole partition deterministically.  The
  aggregate bandwidth is simulated and seeded, hence bit-stable and gated
  at the tight default tolerance.

The run also asserts the bounded route memo stays bounded: a 16x16x16
torus has 16.7M ordered node pairs, and the pre-bound table would grow
without limit as placements spread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.multiquery import MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.scsql.plan import compile_plan
from repro.sim import Simulator, Timeout
from repro.util.errors import MeasurementError

#: The scale partition: 4096 compute nodes, 512 psets — 10x+ the number of
#: nodes any paper figure touches.
DEFAULT_SHAPE: Tuple[int, int, int] = (16, 16, 16)

#: Kernel microbench: concurrent tick streams and ticks per stream.
DEFAULT_STREAMS = 4096
DEFAULT_TICKS = 120

#: Kernel microbench repeats; the best rate is reported (host noise only
#: ever slows a run down, so max-of-N is the stable estimator).
DEFAULT_KERNEL_REPEATS = 3

#: Concurrent stream queries in the MultiQuerySession portion.
DEFAULT_QUERIES = 1024

#: Per-query workload (volume kept small: the point is concurrency).
DEFAULT_ARRAY_BYTES = 100_000
DEFAULT_ARRAY_COUNT = 2

#: MPI buffer size for the session's streams (20 buffers per query).
DEFAULT_BUFFER_BYTES = 10_000

#: Ceiling for the bounded route memo's resident size on the scale run.
ROUTE_MEMO_BYTES_CEILING = 32 * 1024 * 1024


def scale_config(
    shape: Tuple[int, int, int] = DEFAULT_SHAPE, seed: int = 0
) -> EnvironmentConfig:
    """Environment config for a scale-run torus of ``shape``."""
    return EnvironmentConfig(
        bluegene=BlueGeneConfig(torus_shape=shape), seed=seed
    )


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


class _TickStream:
    """One periodic stream timer: a self-rescheduling Timeout chain.

    The callback is bound once and reused across ticks; each tick costs
    exactly one Timeout (allocate + push) and one dispatch — the leanest
    event-driven spelling of "a stream delivers a buffer every period".
    """

    __slots__ = ("sim", "remaining", "period", "_cb")

    def __init__(self, sim: Simulator, period: float, ticks: int):
        self.sim = sim
        self.period = period
        self.remaining = ticks
        self._cb = self._fire
        Timeout(sim, period).callbacks.append(self._cb)

    def _fire(self, event) -> None:
        remaining = self.remaining - 1
        if remaining:
            self.remaining = remaining
            Timeout(self.sim, self.period).callbacks.append(self._cb)


@dataclass(frozen=True)
class ScaleResult:
    """What one scale run measured."""

    shape: Tuple[int, int, int]
    kernel_streams: int
    kernel_events: int
    kernel_wall_s: float
    kernel_events_per_sec: float
    mqs_queries: int
    mqs_events: int
    mqs_wall_s: float
    mqs_mbps: float
    route_entries: int
    route_memo_bytes: int

    @property
    def figure(self) -> str:
        x, y, z = self.shape
        return f"scale[torus={x}x{y}x{z}]"

    def metrics(self) -> Dict[str, float]:
        """The BENCH metric family of this run.

        ``events_per_sec`` / ``wall_s`` names fall in the wall-clock
        tolerance class of :mod:`repro.bench.baseline`; ``mqs_mbps`` is
        simulated (seeded, bit-stable) and gated at the default tolerance.
        The memory footprint is asserted inside :func:`run_scale`, not
        gated — a *smaller* memo must never read as a regression.
        """
        figure = self.figure
        return {
            f"{figure}/events_per_sec": self.kernel_events_per_sec,
            f"{figure}/wall_s": self.kernel_wall_s + self.mqs_wall_s,
            f"{figure}/mqs_mbps": self.mqs_mbps,
        }

    def format_table(self) -> str:
        x, y, z = self.shape
        return "\n".join([
            f"Scale figure: {x}x{y}x{z} torus "
            f"({x * y * z} compute nodes)",
            f"  kernel: {self.kernel_streams} tick streams, "
            f"{self.kernel_events} events in {self.kernel_wall_s:.2f} s "
            f"= {self.kernel_events_per_sec / 1e6:.2f}M events/sec",
            f"  multiquery: {self.mqs_queries} concurrent stream queries, "
            f"{self.mqs_events} events in {self.mqs_wall_s:.2f} s, "
            f"aggregate {self.mqs_mbps:.0f} Mbps",
            f"  route memo: {self.route_entries} entries, "
            f"{self.route_memo_bytes / 1e6:.1f} MB resident",
        ])


def _scaled_defaults(shape: Tuple[int, int, int]) -> Tuple[int, int]:
    """(streams, queries) matched to the partition size.

    The full 4096-node shape runs the headline workload; smaller smoke
    shapes (CI runs an 8x8x8) scale the concurrency down with the node
    count so the figure stays a few seconds.
    """
    nodes = shape[0] * shape[1] * shape[2]
    streams = min(DEFAULT_STREAMS, max(nodes, 256))
    queries = min(DEFAULT_QUERIES, max(nodes // 4, 16))
    return streams, queries


def run_scale(
    shape: Tuple[int, int, int] = DEFAULT_SHAPE,
    streams: Optional[int] = None,
    ticks: int = DEFAULT_TICKS,
    queries: Optional[int] = None,
    array_bytes: int = DEFAULT_ARRAY_BYTES,
    count: int = DEFAULT_ARRAY_COUNT,
    kernel_repeats: int = DEFAULT_KERNEL_REPEATS,
    progress: Optional[Callable[[str], None]] = None,
) -> ScaleResult:
    """Run the scale figure and return its measurements.

    Both portions fork the shared 4096-node topology template instead of
    rebuilding it: the kernel repeats fork it per run, and the multi-query
    session forks it with the route memo already warmed by any earlier
    fork.  Raises :class:`~repro.util.errors.MeasurementError` if the
    bounded route memo exceeds its entry bound or
    :data:`ROUTE_MEMO_BYTES_CEILING`.
    """
    default_streams, default_queries = _scaled_defaults(shape)
    if streams is None:
        streams = default_streams
    if queries is None:
        queries = default_queries
    template = shared_template(scale_config(shape))

    # Kernel tick-stream microbench: every period boundary is one bucket of
    # `streams` simultaneous events.
    best_rate = 0.0
    best_wall = 0.0
    kernel_events = 0
    for repeat in range(max(1, kernel_repeats)):
        env = template.fork(seed=repeat)
        sim = env.sim
        for _ in range(streams):
            _TickStream(sim, 1.0, ticks)
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
        kernel_events = sim.events_dispatched
        rate = kernel_events / wall
        if rate > best_rate:
            best_rate = rate
            best_wall = wall
        if progress is not None:
            progress(
                f"scale kernel repeat {repeat}: {kernel_events} events, "
                f"{rate / 1e6:.2f}M events/sec"
            )

    # Concurrent continuous queries on the shared partition.
    plan = compile_plan(scale_stream_query(array_bytes, count))
    settings = ExecutionSettings(
        mpi_buffer_bytes=DEFAULT_BUFFER_BYTES, double_buffering=True
    )
    env = template.fork(seed=0)
    session = MultiQuerySession(env, settings=settings)
    payload = array_bytes * count
    started = time.perf_counter()
    for index in range(queries):
        session.submit(plan, payload_bytes=payload, label=f"s{index}")
    result = session.run()
    mqs_wall = time.perf_counter() - started
    session.teardown()
    mqs_mbps = sum(outcome.mbps for outcome in result.outcomes)
    mqs_events = env.sim.events_dispatched
    if progress is not None:
        progress(
            f"scale multiquery: {queries} queries, {mqs_events} events, "
            f"aggregate {mqs_mbps:.0f} Mbps in {mqs_wall:.2f} s wall"
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
        kernel_streams=streams,
        kernel_events=kernel_events,
        kernel_wall_s=best_wall,
        kernel_events_per_sec=best_rate,
        mqs_queries=queries,
        mqs_events=mqs_events,
        mqs_wall_s=mqs_wall,
        mqs_mbps=mqs_mbps,
        route_entries=route_entries,
        route_memo_bytes=route_bytes,
    )
