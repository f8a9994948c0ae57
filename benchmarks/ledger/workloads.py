"""The ledger's seven workloads: fixed point lists and the timed op.

A workload is a list of *points* (query text + settings + reference
result) on one topology.  Everything that varies is derived from the
``--seed`` here, in the benchmark; the program under test only ever
receives the generated query texts, settings, sources and environment
seeds.

The timed op is one query lifecycle through the public API, exactly as
``repro.coordinator.deployer.Deployer`` documents it.  ``mark`` is called
between the public calls: the untraced passes hand in a no-op, the stage
ledger hands in a ``perf_counter`` recorder.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.bench.query_stream import DEFAULT_SCALE, QUERY_KINDS, build_query
from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.experiments.scale import scale_config, scale_stream_query
from repro.core.multiquery import MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import (
    Environment,
    EnvironmentConfig,
    shared_template,
)
from repro.obs.instrument import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import DeploymentPlan, compile_plan

#: Environment seed of the untimed warm-up round (never a timed repeat).
WARMUP_REPEAT = 999


@dataclass(frozen=True)
class Point:
    """One query of a workload, with its independently known answer."""

    key: str
    text: str
    expected: Tuple[Any, ...]
    payload_bytes: int
    settings: Optional[ExecutionSettings] = None
    #: > 0: the op submits this many copies to one MultiQuerySession.
    session_queries: int = 0
    sources: Dict[str, Callable[[], Iterator[Any]]] = field(default_factory=dict)

    @property
    def queries(self) -> int:
        """Queries one op of this point completes."""
        return self.session_queries or 1


@dataclass(frozen=True)
class Workload:
    name: str
    points: Tuple[Point, ...]
    config: EnvironmentConfig = EnvironmentConfig()
    #: Run with ``Instrumentation(tracer=NULL_TRACER)`` — what the sweep
    #: harness installs for ``observe="flows"``.
    observed: bool = False
    #: The op starts from text (``compile_plan`` inside the timed region).
    from_text: bool = False
    #: Rounds every launch runs whatever the time budget; the exact
    #: (simulated) metrics are taken over repeats below this, so they do
    #: not depend on how many rounds the host had time for.
    min_rounds: int = 2
    #: The traced launch also runs the rounds with the flows hooks flipped.
    hooks_pair: bool = True
    #: Kernel runs per speed probe (see calibration.py): a few more where
    #: one op is so long that a 1 ms probe would say little about it.
    probe_runs: int = 1

    @property
    def queries_per_round(self) -> int:
        return sum(point.queries for point in self.points)


@dataclass
class OpResult:
    """What one op produced; ``ok`` is the reference check."""

    ok: bool
    #: ``perf_counter`` when the lifecycle returned (or raised): the timed
    #: region ends here, before the result is checked.
    finished: float
    sim_s: float = 0.0
    events: int = 0
    rps: int = 0
    bytes_sent: int = 0
    env: Optional[Environment] = None
    error: str = ""


# ----------------------------------------------------------------------
# The timed op
# ----------------------------------------------------------------------
def no_mark(stage: str) -> None:
    """Stage marker of the untraced passes."""


def make_obs(observed: bool) -> Optional[Instrumentation]:
    return Instrumentation(tracer=NULL_TRACER) if observed else None


def run_op(
    workload: Workload,
    point: Point,
    plan: Optional[DeploymentPlan],
    env_seed: int,
    observed: bool,
    mark: Callable[[str], None] = no_mark,
) -> OpResult:
    """One op of ``point``; never raises on a failed query.

    A query that raises, is rejected by the verifier, or returns a result
    other than the reference counts as failed.
    """
    try:
        if point.session_queries:
            return _run_session(workload, point, plan, env_seed, observed, mark)
        return _run_query(workload, point, plan, env_seed, observed, mark)
    except Exception as error:  # noqa: BLE001 - the ledger counts, then goes on
        return OpResult(
            ok=False, finished=time.perf_counter(),
            error=f"{type(error).__name__}: {error}",
        )


def _run_query(workload, point, plan, env_seed, observed, mark) -> OpResult:
    if workload.from_text:
        plan = compile_plan(point.text, settings=point.settings)
        mark("compile")
    env = shared_template(workload.config).fork(seed=env_seed, obs=make_obs(observed))
    mark("fork")
    deployer = Deployer(env)
    placed = deployer.place(plan, settings=point.settings)
    mark("place")
    deployer.verify(placed).raise_if_failed()
    mark("verify")
    deployment = deployer.deploy(placed)
    mark("deploy")
    report = deployment.run()
    mark("run")
    deployment.teardown()
    mark("teardown")
    finished = time.perf_counter()
    ok = tuple(report.result) == point.expected
    return OpResult(
        ok=ok,
        finished=finished,
        sim_s=report.duration,
        events=env.sim.events_dispatched,
        rps=len(report.rp_placements),
        bytes_sent=sum(report.bytes_sent.values()),
        env=env,
        error="" if ok else f"result {report.result!r} != {list(point.expected)!r}",
    )


def _run_session(workload, point, plan, env_seed, observed, mark) -> OpResult:
    env = shared_template(workload.config).fork(seed=env_seed, obs=make_obs(observed))
    mark("fork")
    session = MultiQuerySession(env, settings=point.settings)
    for index in range(point.session_queries):
        session.submit(plan, payload_bytes=point.payload_bytes, label=f"s{index}")
    mark("submit")
    result = session.run()
    mark("run")
    session.teardown()
    mark("teardown")
    finished = time.perf_counter()
    reports = [outcome.report for outcome in result.outcomes]
    wrong = sum(tuple(report.result) != point.expected for report in reports)
    return OpResult(
        ok=not wrong,
        finished=finished,
        # All queries start at the same instant: the makespan.
        sim_s=max(report.duration for report in reports),
        events=env.sim.events_dispatched,
        rps=sum(len(report.rp_placements) for report in reports),
        bytes_sent=sum(sum(report.bytes_sent.values()) for report in reports),
        env=env,
        error=f"{wrong} of {len(reports)} session queries wrong" if wrong else "",
    )


def env_seed(seed: int, repeat: int) -> int:
    """Environment (jitter) seed of repeat ``repeat`` at benchmark seed ``seed``."""
    return seed * 1000 + repeat


def round_order(workload: Workload, seed: int, launch: int, repeat: int) -> List[int]:
    """Seed-shuffled point order of one round."""
    order = list(range(len(workload.points)))
    random.Random(f"order:{seed}:{launch}:{repeat}").shuffle(order)
    return order


# ----------------------------------------------------------------------
# Workload definitions
# ----------------------------------------------------------------------
def _p2p_text(array_bytes: int, count: int, source: int) -> str:
    """Fig 5 point-to-point query with the sender on node ``source``."""
    return (
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(count(extract(a))), 'bg', 0) "
        f"and a=sp(gen_array({array_bytes},{count}), 'bg', {source});"
    )


def _p2p_points() -> Tuple[Point, ...]:
    """B x hops; 240 buffers per query (8 arrays of 30 buffers)."""
    points = []
    for buffer_bytes in (200, 1000, 100_000):
        # Node 1 is the +X neighbour of node 0; node 26 = (2,2,1) is the
        # far corner of the 4x4x2 torus, 5 hops away.
        for source, hops in ((1, 1), (26, 5)):
            points.append(Point(
                key=f"B{buffer_bytes}/hops{hops}",
                text=_p2p_text(30 * buffer_bytes, 8, source),
                expected=(8,),
                payload_bytes=30 * buffer_bytes * 8,
                settings=ExecutionSettings(
                    mpi_buffer_bytes=buffer_bytes, double_buffering=True
                ),
            ))
    return tuple(points)


def _p2p_torus(seed: int, smoke: bool) -> Workload:
    return Workload("p2p_torus", _p2p_points())


def _p2p_observed(seed: int, smoke: bool) -> Workload:
    return Workload("p2p_observed", _p2p_points(), observed=True)


def _merge_torus(seed: int, smoke: bool) -> Workload:
    points = []
    for name, (x, y) in (("sequential", SEQUENTIAL), ("balanced", BALANCED)):
        for buffer_bytes in (10_000, 100_000):
            points.append(Point(
                key=f"{name}/B{buffer_bytes}",
                text=merge_query(30 * buffer_bytes, 8, x, y),
                expected=(16,),
                payload_bytes=2 * 30 * buffer_bytes * 8,
                settings=ExecutionSettings(
                    mpi_buffer_bytes=buffer_bytes, double_buffering=True
                ),
            ))
    return Workload("merge_torus", tuple(points))


#: Fig 15 (query number, n) points; Q5 n=4 is the paper's ~920 Mbps peak.
INBOUND_POINTS = ((1, 4), (2, 4), (5, 4), (5, 5), (6, 8))
INBOUND_ARRAY_BYTES = 300_000
INBOUND_ARRAY_COUNT = 3


def inbound_point(query_number: int, n: int) -> Point:
    return Point(
        key=f"Q{query_number}/n{n}",
        text=inbound_query(query_number, n, INBOUND_ARRAY_BYTES, INBOUND_ARRAY_COUNT),
        expected=(n * INBOUND_ARRAY_COUNT,),
        payload_bytes=n * INBOUND_ARRAY_BYTES * INBOUND_ARRAY_COUNT,
        settings=ExecutionSettings(),
    )


def _inbound_eth(seed: int, smoke: bool) -> Workload:
    return Workload(
        "inbound_eth", tuple(inbound_point(q, n) for q, n in INBOUND_POINTS)
    )


def _lifecycle_tiny(seed: int, smoke: bool) -> Workload:
    """16 one-buffer texts, four from each of four templates.

    The seed picks the node numbers (the four inbound texts are Queries 1,
    2, 5 and 6, one each); every array is 500 bytes (below the 1000-byte default buffer, so one buffer
    per stream), which keeps the shape of the work — its host cost and its
    simulated bandwidth — close to the same at every seed.
    """
    rng = random.Random(f"tiny:{seed}")
    points = []
    size = 500
    for index, query_number in enumerate((1, 2, 5, 6)):
        receiver, sender = rng.sample(range(32), 2)
        points.append(Point(
            key=f"p2p/{index}",
            text=(
                "select extract(b) from sp a, sp b "
                f"where b=sp(streamof(count(extract(a))), 'bg', {receiver}) "
                f"and a=sp(gen_array({size},1), 'bg', {sender});"
            ),
            expected=(1,),
            payload_bytes=size,
        ))
        x, y = rng.sample(range(1, 32), 2)
        points.append(Point(
            key=f"merge/{index}",
            text=merge_query(size, 1, x, y),
            expected=(2,),
            payload_bytes=2 * size,
        ))
        points.append(Point(
            key=f"inbound/Q{query_number}",
            text=inbound_query(query_number, 2, size, 1),
            expected=(2,),
            payload_bytes=2 * size,
        ))
        points.append(Point(
            key=f"indexfree/{index}",
            text=scale_stream_query(size, 1),
            expected=(1,),
            payload_bytes=size,
        ))
    return Workload("lifecycle_tiny", tuple(points), from_text=True)


def _deck_apps(seed: int, smoke: bool) -> Workload:
    """The power-mode deck (stream 0) at DEFAULT_SCALE, data from the seed."""
    points = []
    for kind in QUERY_KINDS:
        query = build_query(kind, 0, DEFAULT_SCALE, seed)
        points.append(Point(
            key=kind,
            text=query.query,
            expected=(query.expected_result,),
            payload_bytes=query.payload_bytes,
            sources=query.sources,
        ))
    return Workload("deck_apps", tuple(points))


#: One 10 kB array in one 10 kB buffer per query: the volume is kept small
#: because the point is 1024-way concurrency, not bytes, and because a
#: session must stay short (< 1 s) for the speed probes around it to say
#: anything about the machine's speed during it.
MQS_ARRAY_BYTES = 10_000
MQS_BUFFER_BYTES = 10_000


def _mqs_scale(seed: int, smoke: bool) -> Workload:
    shape, queries = ((8, 8, 8), 128) if smoke else ((16, 16, 16), 1024)
    point = Point(
        key=f"session/{queries}",
        text=scale_stream_query(MQS_ARRAY_BYTES, 1),
        expected=(1,),
        payload_bytes=MQS_ARRAY_BYTES,
        settings=ExecutionSettings(
            mpi_buffer_bytes=MQS_BUFFER_BYTES, double_buffering=True
        ),
        session_queries=queries,
    )
    # No hooks-on side: every one of the session's reports freezes the whole
    # metrics registry, so an observed 1024-query session costs ~9 GB and
    # minutes (128 queries: 10x the time, +140 MB).  Its hook-only counts
    # and obs.slowdown_x read 0.
    return Workload(
        "mqs_scale", (point,), config=scale_config(shape), min_rounds=1,
        hooks_pair=False, probe_runs=8,
    )


_BUILDERS: Dict[str, Callable[[int, bool], Workload]] = {
    "p2p_torus": _p2p_torus,
    "merge_torus": _merge_torus,
    "inbound_eth": _inbound_eth,
    "lifecycle_tiny": _lifecycle_tiny,
    "deck_apps": _deck_apps,
    "mqs_scale": _mqs_scale,
    "p2p_observed": _p2p_observed,
}


def build_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload ``name`` with its inputs generated from ``seed``."""
    return _BUILDERS[name](seed, smoke)
