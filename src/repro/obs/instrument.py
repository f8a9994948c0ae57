"""The instrumentation hub: translates kernel hooks into traces + metrics.

One :class:`Instrumentation` is attached to one
:class:`~repro.sim.core.Simulator` (``sim.obs``).  The kernel counts its
events and timeouts itself, and the registry reports those counts; per
event it calls only an attached live sampler.  Process starts and ends,
resource and store changes and the network/engine models call the hub's
hooks — always behind an ``if sim.obs.enabled:`` guard, so a simulator
carrying :data:`NULL_OBS` (the default) pays one attribute check per hook
site and nothing else.

The hub fans each observation out to

* a :class:`~repro.obs.tracer.Tracer` (timeline records: who held which
  resource when, process lifetimes, store levels), and
* a :class:`~repro.obs.metrics.MetricsRegistry` (counters and time-weighted
  utilization/queue-depth statistics),

either of which may be the null implementation independently.

Per-event hooks work on **bound instruments**: the first hook a resource or
store raises resolves its registry instruments (formatting their names once)
and parks them on the entity's private ``_bound`` slot; later hooks touch
those objects directly.  Instruments are still created on first use, in the
order name-keyed calls would create them, so no output can tell.  The hub is
the kernel's own observer and reads its private fields (``sim._now``,
``resource._users``) rather than pay a property call per event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

from repro.obs.null import (
    NULL_FLOWS,
    NULL_LIVE,
    NULL_OBS as NULL_OBS,
    NullFlowRecorder,
    NullInstrumentation,
    NullLiveSampler,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.live import LiveSampler, WindowSample
    from repro.obs.metrics import Counter, MetricsRegistry, MetricsSnapshot
    from repro.sim.core import Simulator
    from repro.sim.events import Process
    from repro.sim.resources import Request, Resource, Store


class _ResourceInstruments:
    """The registry instruments of one resource.

    Built by its first hook — always an acquire, since a wait needs a full
    resource — so the first three are created in the name-keyed order; the
    contended-path counters are resolved when they first fire.
    """

    __slots__ = ("key", "track", "acquires", "busy", "queue", "waits", "withdrawals")

    def __init__(self, key: str, metrics: MetricsRegistry, now: float) -> None:
        self.key = key
        self.track = f"resource:{key}"
        self.acquires = metrics.counter(f"resource.acquires[{key}]")
        self.busy = metrics.time_weighted(f"resource.busy[{key}]", start_ts=now)
        self.queue = metrics.time_weighted(f"resource.queue[{key}]", start_ts=now)
        self.waits: Optional[Counter] = None
        self.withdrawals: Optional[Counter] = None


class _StoreInstruments:
    """The level series and trace track of one store."""

    __slots__ = ("track", "level")

    def __init__(self, key: str, metrics: MetricsRegistry, now: float) -> None:
        self.track = f"store:{key}"
        self.level = metrics.time_weighted(f"store.level[{key}]", start_ts=now)


class Instrumentation(NullInstrumentation):
    """An enabled tracer/metrics bundle bound to one simulator.

    Args:
        tracer: Timeline recorder; defaults to a fresh :class:`Tracer`.
            Pass :data:`~repro.obs.tracer.NULL_TRACER` for metrics-only
            instrumentation (much lighter on memory for long runs).
        flows: Flow-level causal recorder; defaults to a fresh
            :class:`~repro.obs.flow.FlowRecorder`.  Pass
            :data:`~repro.obs.flow.NULL_FLOWS` to skip per-buffer hop
            logging (lighter for long bandwidth sweeps where only the
            aggregate counters matter).
        live: Windowed live telemetry sampler; defaults to
            :data:`~repro.obs.live.NULL_LIVE` (disabled).  Pass a
            :class:`~repro.obs.live.LiveSampler` to stream per-window
            utilization/latency while the simulation runs.
    """

    enabled = True

    def __init__(self, tracer: Optional[NullTracer] = None,
                 flows: Optional[NullFlowRecorder] = None,
                 live: Optional[NullLiveSampler] = None) -> None:
        from repro.obs.flow import FlowRecorder
        from repro.obs.metrics import MetricsRegistry

        self.tracer: NullTracer = Tracer() if tracer is None else tracer
        self.metrics: MetricsRegistry = MetricsRegistry()
        self.flows: NullFlowRecorder = FlowRecorder() if flows is None else flows
        self.live: NullLiveSampler = NULL_LIVE if live is None else live
        self.sim: Optional["Simulator"] = None
        # Process counters, bound on first use (keeps the first-use key order).
        self._started: Optional[Counter] = None
        self._finished: Optional[Counter] = None
        if self.live.enabled:
            self.live.bind(self)

    def bind(self, sim: "Simulator") -> None:
        """Attach to the simulator whose hooks and counts feed this hub."""
        self.sim = sim
        self.metrics.kernel = sim

    # ------------------------------------------------------------------
    # Kernel hooks (sim.core / sim.events)
    # ------------------------------------------------------------------
    def _bind(self, holder: object, attr: str, name: str) -> Counter:
        """Resolve counter ``name`` on its first use; park it on ``holder``."""
        counter = self.metrics.counter(name)
        setattr(holder, attr, counter)
        return counter

    def on_process_created(self, process: "Process") -> None:
        (self._started or self._bind(self, "_started", "sim.processes_started")).value += 1.0
        if self.tracer.enabled:
            self.tracer.span_begin(
                process.sim.now, f"process:{process.name}", process.name,
                ident=id(process),
            )

    def on_process_finished(self, process: "Process", ok: bool) -> None:
        (self._finished or self._bind(self, "_finished", "sim.processes_finished")).value += 1.0
        if not ok:
            self.metrics.add("sim.processes_failed")
        if self.tracer.enabled:
            self.tracer.span_end(
                process.sim.now, f"process:{process.name}", process.name,
                ident=id(process), args=None if ok else {"failed": True},
            )

    def on_interrupt(self, process: "Process", cause: Any) -> None:
        self.metrics.add("sim.interrupts")
        if self.tracer.enabled:
            self.tracer.instant(
                process.sim.now, f"process:{process.name}", "interrupt",
                args={"cause": repr(cause)},
            )

    # ------------------------------------------------------------------
    # Resource hooks (sim.resources)
    # ------------------------------------------------------------------
    def _bind_resource(self, resource: "Resource", now: float) -> _ResourceInstruments:
        key = resource.name or f"resource@{id(resource):#x}"
        if self.live.enabled:
            self.live.note_capacity(key, resource.capacity)
        bound = resource._bound = _ResourceInstruments(key, self.metrics, now)
        return bound

    def on_resource_wait(self, resource: "Resource") -> None:
        now = resource.sim._now
        bound = resource._bound or self._bind_resource(resource, now)
        (bound.waits or self._bind(bound, "waits", f"resource.waits[{bound.key}]")).value += 1.0
        bound.queue.update(now, len(resource._waiting))

    # The acquire, release (which only lowers the level) and store-level hooks inline
    # ``TimeWeightedStat.update``: one frame per change (test_bound_instruments checks).
    def on_resource_acquire(self, resource: "Resource", request: "Request") -> None:
        now = resource.sim._now
        bound = resource._bound or self._bind_resource(resource, now)
        bound.acquires.value += 1.0
        series = bound.busy
        dt = now - series._last_ts
        if dt > 0.0:
            series.integral += series.current * dt
            series.dwell[series.current] += dt
        series._last_ts, series.current = now, len(resource._users)
        if series.current > series.maximum:
            series.maximum = series.current
        if resource._waiting or bound.queue.current:  # else 0 stays 0: a no-op
            bound.queue.update(now, len(resource._waiting))
        if self.tracer.enabled:
            self.tracer.span_begin(now, bound.track, "hold", ident=id(request))

    def on_resource_release(self, resource: "Resource", request: "Request") -> None:
        now = resource.sim._now
        bound = resource._bound or self._bind_resource(resource, now)
        series = bound.busy
        dt = now - series._last_ts
        if dt > 0.0:
            series.integral += series.current * dt
            series.dwell[series.current] += dt
        series._last_ts, series.current = now, len(resource._users)
        if self.tracer.enabled:
            self.tracer.span_end(now, bound.track, "hold", ident=id(request))

    def on_resource_withdraw(self, resource: "Resource") -> None:
        now = resource.sim._now
        bound = resource._bound or self._bind_resource(resource, now)
        (
            bound.withdrawals
            or self._bind(bound, "withdrawals", f"resource.withdrawals[{bound.key}]")
        ).value += 1.0
        bound.queue.update(now, len(resource._waiting))

    # ------------------------------------------------------------------
    # Store hooks (sim.resources)
    # ------------------------------------------------------------------
    def on_store_level(self, store: "Store", size: int) -> None:
        now = store.sim._now
        bound = store._bound
        if bound is None:
            key = store.name or f"store@{id(store):#x}"
            bound = store._bound = _StoreInstruments(key, self.metrics, now)
        series = bound.level
        if size or series.current:  # else 0 stays 0: a no-op
            dt = now - series._last_ts
            if dt > 0.0:
                series.integral += series.current * dt
                series.dwell[series.current] += dt
            series._last_ts, series.current = now, size
            if size > series.maximum:
                series.maximum = size
        if self.tracer.enabled:
            self.tracer.counter(now, bound.track, "size", size)

    # ------------------------------------------------------------------
    # Direct instruments for the models (torus / ethernet / drivers)
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.metrics.add(name, amount)

    def record_level(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (its peak is retained)."""
        self.metrics.set_gauge(name, value)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the metrics at the current simulated time.

        Flow-level latency aggregates (p50/p95/p99 per stream edge) are
        published into the registry first, so a snapshot of an observed
        run always carries the latency decomposition alongside the
        counters.
        """
        self.flows.publish(self.metrics)
        return self.metrics.snapshot(self.now)

    def resource_busy_time(self, name: str) -> float:
        """Total simulated seconds resource ``name`` had >= 1 slot held."""
        series = self.metrics.series.get(f"resource.busy[{name}]")
        if series is None:
            return 0.0
        series.finalize(self.now)
        return series.time_at_or_above(1)

    def resource_occupancy(self, name: str) -> float:
        """Slot-seconds integral of resource ``name`` (busy count over time)."""
        series = self.metrics.series.get(f"resource.busy[{name}]")
        if series is None:
            return 0.0
        series.finalize(self.now)
        return series.integral


# ----------------------------------------------------------------------
# Observation levels: what a measurement asks for, as a picklable word
# ----------------------------------------------------------------------
#: No hub: the run pays one attribute check per hook site.
OBSERVE_NONE = "none"
#: Counters and time-weighted series only (utilization summaries).
OBSERVE_METRICS = "metrics"
#: Metrics plus per-buffer flow records (latency percentiles, bottleneck
#: reports); cheap enough for full sweeps.
OBSERVE_FLOWS = "flows"
#: Metrics, flows and the timeline tracer (Chrome/JSONL traces).
OBSERVE_TRACE = "trace"

#: Every level, cheapest first; each builds a superset of the one before.
OBSERVE_LEVELS = (OBSERVE_NONE, OBSERVE_METRICS, OBSERVE_FLOWS, OBSERVE_TRACE)

#: Levels read back through the live hub itself (registry series, timeline
#: records): it holds its simulator, so it cannot leave the process that ran
#: it.  ``flows`` is read back through the completed records, which can.
LIVE_HUB_LEVELS = (OBSERVE_METRICS, OBSERVE_TRACE)


def check_level(level: str) -> str:
    """``level`` itself, or a :class:`ValueError` naming the known levels."""
    if level not in OBSERVE_LEVELS:
        raise ValueError(
            f"unknown observe level {level!r}; expected one of {list(OBSERVE_LEVELS)}"
        )
    return level


def instrumentation_for(level: str) -> Optional[Instrumentation]:
    """A fresh hub for one run at ``level`` (``None`` for ``"none"``)."""
    if check_level(level) == OBSERVE_NONE:
        return None
    return Instrumentation(
        tracer=None if level == OBSERVE_TRACE else NULL_TRACER,
        flows=NULL_FLOWS if level == OBSERVE_METRICS else None,
    )


def live_instrumentation(
    *, on_window: Optional[Callable[[WindowSample], None]] = None,
) -> Tuple[Instrumentation, LiveSampler]:
    """A fresh live hub — metrics and flows on, no timeline tracer — and
    its sampler, which closes a window every
    :data:`~repro.obs.live.DEFAULT_WINDOW` simulated seconds (``on_window``
    sees each) under the stock bottleneck detector."""
    from repro.obs.live import LiveSampler

    sampler = LiveSampler(on_window=on_window)
    return Instrumentation(tracer=NULL_TRACER, live=sampler), sampler
