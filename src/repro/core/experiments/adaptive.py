"""Adaptive-runtime regression cases: static vs adaptive, same seed.

Two situations from the reproduced figures where the measurement-driven
runtime (:mod:`repro.core.adaptive`) should beat a static placement:

* **fig15** — the concurrent-CQ contention funnel of
  :mod:`repro.core.experiments.contention` (the ``multiquery`` row's
  distinct-sender, shared-pset point of k = 2, n = 2): two CQs pin
  their receivers into one pset, so both result streams squeeze through
  that pset's single I/O-node path.  The right move — migrating one
  query's receivers into a free pset — recovers each query's bandwidth
  toward its solo baseline.
* **fig8** — the sequential node selection of Figure 7A
  (:mod:`repro.core.experiments.fig8`): generator ``b``'s traffic is
  routed through generator ``a``'s busy communication co-processor.
  Migrating either generator off the shared route removes the forwarding
  contention the paper measured.

Each case runs twice on identically seeded environments — once as the
classic static ``session.run()``, once under an
:class:`~repro.core.adaptive.AdaptiveController` — and reports both
bandwidths plus the migration audit trail and the time the detector took
to see the replacement deliver.  ``repro adaptive`` (the CLI) and the
``adaptive`` BENCH figure are thin wrappers over :func:`run_adaptive_point`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from repro.core.adaptive import BUDGET, AdaptiveController
from repro.core.experiments.contention import contention_specs
from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
from repro.core.measurement import PointSpec
from repro.core.multiquery import MultiQueryResult, MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.instrument import live_instrumentation
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError
from repro.util.record import Record

__all__ = [
    "ADAPTIVE_POINTS",
    "AdaptiveComparison",
    "run_adaptive_point",
    "write_health_events",
]

#: The regression points this module knows how to build.
ADAPTIVE_POINTS: Tuple[str, ...] = ("fig15", "fig8")


def _point_spec(point: str, smoke: bool) -> PointSpec:
    """Build the point's session of labelled queries, scaled down under ``smoke``."""
    if point == "fig15":
        array_bytes, count = (300_000, 3) if smoke else (3_000_000, 5)
        (spec,) = contention_specs(((2, 2, "distinct", "shared"),), array_bytes, count)
        return spec
    if point == "fig8":
        array_bytes, count = (400_000, 5) if smoke else (1_000_000, 30)
        x, y = SEQUENTIAL
        return PointSpec(
            key=point,
            query=(("q8", merge_query(array_bytes, count, x, y)),),
            payload_bytes=2 * array_bytes * count,
            # Figure 8's node-selection effect appears at large buffers:
            # below ~10 KB the receiving co-processor binds either way and
            # there is nothing for a migration to win.
            settings=ExecutionSettings(
                mpi_buffer_bytes=100_000, double_buffering=True
            ),
        )
    raise QueryExecutionError(
        f"unknown adaptive point {point!r}; expected one of {ADAPTIVE_POINTS}"
    )


class AdaptiveComparison(Record):
    """Static vs adaptive run of one regression point (same seed)."""

    __slots__ = ("point", "static", "adaptive")

    def __init__(self, point: str, static: MultiQueryResult, adaptive: MultiQueryResult) -> None:
        self.point = point
        self.static = static
        self.adaptive = adaptive

    @property
    def static_mbps(self) -> float:
        """Worst per-query bandwidth of the static run (Mbit/s)."""
        return min(outcome.mbps for outcome in self.static.outcomes)

    @property
    def adaptive_mbps(self) -> float:
        """Worst per-query bandwidth of the adaptive run (Mbit/s).

        Durations are session-relative, so migration downtime and replay
        are charged against the adaptive number — the comparison with
        :attr:`static_mbps` is end-to-end fair.
        """
        return min(outcome.mbps for outcome in self.adaptive.outcomes)

    @property
    def speedup(self) -> float:
        """Adaptive/static worst-query bandwidth ratio (1.0 = no change)."""
        return self.adaptive_mbps / self.static_mbps if self.static_mbps else 1.0

    @property
    def migrations(self) -> List[object]:
        return list(self.adaptive.migrations)

    @property
    def recover_s(self) -> float:
        """Seconds from the first migration to its replacement delivering.

        Read from the adaptive run's health events: the first ``recovered``
        stream event at or after the first migration's time.  0.0 when no
        migration happened.
        """
        if not self.adaptive.migrations:
            return 0.0
        first = min(record.time for record in self.adaptive.migrations)
        live = self.adaptive.live
        if live is not None:
            recovered = [
                event.time
                for event in live.health_events
                if event.kind == "recovered" and event.scope == "stream"
                and event.time >= first
            ]
            if recovered:
                return min(recovered) - first
        makespan = max(
            outcome.total_duration or outcome.report.duration
            for outcome in self.adaptive.outcomes
        )
        return makespan - first

    def format_table(self) -> str:
        lines = [
            f"Adaptive runtime vs static placement ({self.point})",
            f"{'':>10}  {'static Mbps':>12}  {'adaptive Mbps':>14}",
        ]
        for static, adaptive in zip(self.static.outcomes, self.adaptive.outcomes):
            lines.append(
                f"{static.label:>10}  {static.mbps:>12.1f}  {adaptive.mbps:>14.1f}"
            )
        lines.append(
            f"worst-query speedup x{self.speedup:.2f}, "
            f"{len(self.adaptive.migrations)} migration(s), "
            f"recover {self.recover_s * 1e3:.2f} ms"
        )
        for record in self.adaptive.migrations:
            lines.append(
                f"  {record.rp_prefix} {record.sp_id}: {record.source} -> "
                f"{record.target}"
                + (" (rolled back)" if record.rolled_back else "")
            )
        return "\n".join(lines)


def _run_session(
    spec: PointSpec,
    config: EnvironmentConfig,
    budget: Optional[int],
) -> MultiQueryResult:
    """One live-watched session: the classic ``session.run()`` when
    ``budget`` is None, else an :class:`AdaptiveController` with it."""
    obs, sampler = live_instrumentation()
    env = shared_template(config).fork(seed=config.seed, obs=obs)
    session = MultiQuerySession(env, settings=spec.settings)
    for label, text in spec.query:
        session.submit(compile_plan(text), payload_bytes=spec.payload_bytes, label=label)
    if budget is None:
        result = session.run()
    else:
        result = AdaptiveController(session, budget).run()
    session.teardown()
    sampler.finalize(env.sim.now)
    result.live = sampler
    return result


def run_adaptive_point(
    point: str = "fig15",
    seed: int = 0,
    smoke: bool = False,
    budget: int = BUDGET,
) -> AdaptiveComparison:
    """Run one regression point statically and adaptively, same seed.

    Both runs are live-instrumented (the static run needs the sampler only
    for comparable telemetry; its session still uses the classic single
    ``sim.run()`` path).  ``budget`` caps the adaptive run's migrations.
    """
    spec = _point_spec(point, smoke)
    config = EnvironmentConfig().with_seed(seed)
    static = _run_session(spec, config, None)
    adaptive = _run_session(spec, config, budget)
    return AdaptiveComparison(point=point, static=static, adaptive=adaptive)


def write_health_events(path: str, result: MultiQueryResult) -> int:
    """Dump a run's health events as JSONL (one event per line).

    The CI adaptive smoke job uploads this file as its artifact.  Returns
    the number of events written.
    """
    live = result.live
    events = list(live.health_events) if live is not None else []
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    return len(events)
