"""The live telemetry plane: rolling windowed time-series over a running sim.

Everything in :mod:`repro.obs` up to here is post-hoc — the
:class:`~repro.obs.flow.FlowRecorder` and
:class:`~repro.obs.profile.BottleneckReport` only speak once the run is
over.  The :class:`LiveSampler` closes that gap: it partitions simulated
time into fixed windows of ``window`` seconds and, at each boundary,
publishes a :class:`WindowSample` carrying

* per-resource **windowed utilization** (busy-slot integral over the
  window divided by window length and capacity),
* per-store **mean queue depth** over the window,
* flow **throughput** (completions, delivered bytes, Mbit/s) and a
  window-local latency summary (exact p50/p95/p99 via
  :func:`repro.util.stats.latency_summary`),
* sim-event counts and the in-flight flow census,

and feeds the :class:`~repro.obs.health.ContinuousBottleneckDetector`,
which turns the window stream into typed ``HealthEvent``s.

Zero cost, even when enabled
----------------------------
The sampler is deliberately **not** a simulated process.  A periodic
timeout process would keep the event queue non-empty (changing ``run()``
termination) and add one event per window even to an otherwise idle sim.
Instead the kernel calls the attached sampler's ``on_step`` before each
event (it calls no per-event hook otherwise): when the next event's
timestamp reaches a window boundary, every whole window up to it is
closed *before* that event executes.  Window contents are computed from
the metric registry's time-weighted integrals evaluated exactly at the
boundary (:meth:`~repro.obs.metrics.TimeWeightedStat.integral_at`), so
boundaries need no events of their own and the sampler adds **zero
events** to the simulation — the overhead benchmark pins this.

Windows are half-open ``[start, end)``: an event scheduled exactly at a
boundary belongs to the following window, because its ``on_step`` closes
the preceding window before any of its callbacks run.  The trailing
partial window is closed by :meth:`LiveSampler.finalize` (exporters and
the CLI call it; it is idempotent).

Like the tracer and flow recorder, the disabled twin
(:data:`NULL_LIVE`, a shared :class:`NullLiveSampler`) is installed on
every hub by default and short-circuits every hook behind one attribute
check.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.null import DEFAULT_WINDOW, NULL_LIVE, NullLiveSampler
from repro.util.record import Frozen
from repro.util.stats import latency_summary
from repro.util.units import MEGA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.flow import FlowRecord
    from repro.obs.health import HealthEvent
    from repro.obs.instrument import Instrumentation

__all__ = [
    "WindowSample",
    "NullLiveSampler",
    "NULL_LIVE",
    "LiveSampler",
    "DEFAULT_WINDOW",
]

_BUSY_PREFIX = "resource.busy["
_LEVEL_PREFIX = "store.level["


class WindowSample(Frozen):
    """One closed telemetry window (plain data, JSON-ready)."""

    index: int
    start: float
    end: float
    #: Kernel events executed inside the window.
    events: int
    flows_completed: int
    bytes_delivered: int
    #: Flows still travelling at the window boundary.
    in_flight: int
    throughput_mbps: float
    #: :func:`~repro.util.stats.latency_summary` of the flows completed
    #  inside the window (``n``/``mean``/``min``/``max``/``p50``/``p95``/``p99``).
    latency: Dict[str, float]
    #: Resource -> busy fraction of capacity over the window.
    utilization: Dict[str, float]
    #: Store -> time-weighted mean level over the window.
    queues: Dict[str, float]
    #: Base stream label -> bytes delivered inside the window.
    stream_bytes: Dict[str, float]
    #: ``<base_label>/<sp_id>`` -> bytes delivered *to* that stream
    #  process inside the window (generation suffixes stripped, so a
    #  migrated SP keeps one series across ``+gN`` redeployments).
    sp_bytes: Dict[str, float]
    __slots__ = ("index", "start", "end", "events", "flows_completed", "bytes_delivered",
                 "in_flight", "throughput_mbps", "latency", "utilization", "queues", "stream_bytes",
                 "sp_bytes")

    def __init__(self, index: int, start: float, end: float, events: int, flows_completed: int,
                 bytes_delivered: int, in_flight: int, throughput_mbps: float,
                 latency: Optional[Dict[str, float]] = None,
                 utilization: Optional[Dict[str, float]] = None,
                 queues: Optional[Dict[str, float]] = None,
                 stream_bytes: Optional[Dict[str, float]] = None,
                 sp_bytes: Optional[Dict[str, float]] = None) -> None:
        self._set_fields(index, start, end, events, flows_completed, bytes_delivered, in_flight,
                         throughput_mbps, {} if latency is None else latency,
                         {} if utilization is None else utilization,
                         {} if queues is None else queues,
                         {} if stream_bytes is None else stream_bytes,
                         {} if sp_bytes is None else sp_bytes)

    @property
    def span(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.index,
            "start": self.start,
            "end": self.end,
            "events": self.events,
            "flows": self.flows_completed,
            "bytes": self.bytes_delivered,
            "in_flight": self.in_flight,
            "mbps": self.throughput_mbps,
            "latency": dict(self.latency),
            "utilization": dict(self.utilization),
            "queues": dict(self.queues),
            "streams": dict(self.stream_bytes),
            "sps": dict(self.sp_bytes),
        }


class _WindowAccumulator:
    """Mutable counters for the window currently being filled."""

    __slots__ = ("nbytes", "latencies", "stream_bytes", "sp_bytes")

    def __init__(self) -> None:
        self.nbytes = 0
        self.latencies: List[float] = []
        self.stream_bytes: Dict[str, float] = {}
        self.sp_bytes: Dict[str, float] = {}


class LiveSampler(NullLiveSampler):
    """Streaming windowed telemetry over one instrumented simulation.

    Args:
        window: Window length in simulated seconds (> 0).
        on_window: Optional callback invoked with each closed
            :class:`WindowSample` the moment it closes — this is how the
            ``repro top`` CLI streams rows while the sim runs.

    A sampler binds to exactly one :class:`Instrumentation` hub (and
    therefore one simulator); rebinding raises, as does binding a second
    consumer to the hub's FlowRecorder.
    """

    __slots__ = (
        "window", "detector", "_windows", "_on_window", "_obs", "_boundary",
        "_index", "_acc", "_prev_busy", "_prev_level", "_events",
        "_capacity", "_finalized",
    )

    enabled = True

    def __init__(self, window: float = DEFAULT_WINDOW,
                 on_window: Optional[Callable[[WindowSample], None]] = None):
        if window <= 0.0:
            raise ValueError(f"window must be > 0 simulated seconds, got {window!r}")
        from repro.obs.health import ContinuousBottleneckDetector

        self.window = window
        self.detector = ContinuousBottleneckDetector()
        self._windows: List[WindowSample] = []
        self._on_window = on_window
        self._obs: Optional["Instrumentation"] = None
        self._boundary = window
        self._index = 0
        self._acc = _WindowAccumulator()
        self._prev_busy: Dict[str, float] = {}
        self._prev_level: Dict[str, float] = {}
        self._events = 0  # dispatched in the open window
        self._capacity: Dict[str, float] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, obs: "Instrumentation") -> None:
        """Attach to the hub whose metrics/flows feed this sampler."""
        if self._obs is not None and self._obs is not obs:
            raise RuntimeError(
                "a LiveSampler is bound to exactly one Instrumentation; "
                "create a fresh sampler per environment"
            )
        self._obs = obs
        if obs.flows.enabled:
            obs.flows.bind_consumer(self._observe_flow)

    @property
    def windows(self) -> List[WindowSample]:
        """Closed windows, oldest first (call :meth:`finalize` to include
        the trailing partial window)."""
        return self._windows

    @property
    def health_events(self) -> List["HealthEvent"]:
        return self.detector.events

    @property
    def culprit(self) -> Optional[str]:
        """The detector's current ranked bottleneck (None before data)."""
        return self.detector.culprit

    def latencies(self) -> List[float]:
        """End-to-end latencies of every data flow completed so far.

        Read from the bound hub's flow recorder — the sampler is its
        consumer and keeps no cumulative state of its own, so the footer and
        the Prometheus summary cannot disagree with the recorder.
        """
        return self._obs.flows.latencies() if self._obs is not None else []

    # ------------------------------------------------------------------
    # Hooks (kernel- and hub-driven, behind `live.enabled`)
    # ------------------------------------------------------------------
    def on_step(self, now: float) -> None:
        """Count one event in the open window, first closing every whole
        window whose boundary the clock has reached.

        The kernel calls it *before* the event executes, so a window's
        contents are exactly the activity strictly before its end boundary.
        """
        if now >= self._boundary:
            self._close_through(now)
        self._events += 1

    def _close_through(self, now: float) -> None:
        while not self._finalized and now >= self._boundary:
            self._close(self._boundary, self.window)
            self._boundary += self.window
            self._index += 1

    def note_capacity(self, key: str, capacity: float) -> None:
        """Learn a resource's slot capacity (first report wins)."""
        if key not in self._capacity:
            self._capacity[key] = float(capacity)

    def on_failure(self, subject: str, scope: str, detail: str = "") -> None:
        """Report a hardware failure (fault harness hook) as ``degraded``."""
        now = self._obs.now if self._obs is not None else 0.0
        self.detector.on_failure(
            now, subject=subject, scope=scope, window=self._index, detail=detail
        )

    def _observe_flow(self, record: "FlowRecord") -> None:
        """The flow recorder's completion consumer: fill the open window."""
        from repro.obs.health import base_stream

        if record.eos:
            return
        acc = self._acc
        acc.latencies.append(record.latency)
        acc.nbytes += record.nbytes
        base = base_stream(record.stream_id)
        acc.stream_bytes[base] = acc.stream_bytes.get(base, 0.0) + record.nbytes
        dst = record.stream_id.rsplit("->", 1)[-1]
        prefix, _, sp = dst.partition("/")
        sp_key = f"{prefix.split('+', 1)[0]}/{sp}" if sp else dst
        acc.sp_bytes[sp_key] = acc.sp_bytes.get(sp_key, 0.0) + record.nbytes
        delivered = record.delivered if record.delivered is not None else 0.0
        self.detector.on_delivery(delivered, record.stream_id, window=self._index)

    # ------------------------------------------------------------------
    # Window assembly
    # ------------------------------------------------------------------
    def _close(self, end: float, span: float) -> None:
        from repro.obs.health import base_stream

        obs = self._obs
        if obs is None:
            raise RuntimeError("LiveSampler.on_step before bind()")
        metrics = obs.metrics
        start = end - span

        events = self._events
        self._events = 0

        utilization: Dict[str, float] = {}
        queues: Dict[str, float] = {}
        for name, series in metrics.series.items():
            if name.startswith(_BUSY_PREFIX):
                key = name[len(_BUSY_PREFIX):-1]
                integral = series.integral_at(end)
                busy = integral - self._prev_busy.get(name, 0.0)
                self._prev_busy[name] = integral
                capacity = self._capacity.get(key, 1.0)
                denominator = span * capacity if capacity > 0.0 else span
                utilization[key] = busy / denominator if denominator > 0.0 else 0.0
            elif name.startswith(_LEVEL_PREFIX):
                key = name[len(_LEVEL_PREFIX):-1]
                integral = series.integral_at(end)
                level = integral - self._prev_level.get(name, 0.0)
                self._prev_level[name] = integral
                queues[key] = level / span if span > 0.0 else 0.0

        acc = self._acc
        in_flight_by_base: Dict[str, int] = {}
        for stream_id, count in obs.flows.in_flight_streams().items():
            base = base_stream(stream_id)
            in_flight_by_base[base] = in_flight_by_base.get(base, 0) + count
        in_flight = obs.flows.in_flight_count

        sample = WindowSample(
            index=self._index,
            start=start,
            end=end,
            events=events,
            flows_completed=len(acc.latencies),
            bytes_delivered=acc.nbytes,
            in_flight=in_flight,
            throughput_mbps=(
                acc.nbytes * 8.0 / MEGA / span if span > 0.0 else 0.0
            ),
            latency=latency_summary(acc.latencies),
            utilization={k: utilization[k] for k in sorted(utilization)},
            queues={k: queues[k] for k in sorted(queues)},
            stream_bytes={k: acc.stream_bytes[k] for k in sorted(acc.stream_bytes)},
            sp_bytes={k: acc.sp_bytes[k] for k in sorted(acc.sp_bytes)},
        )
        self._windows.append(sample)
        self._acc = _WindowAccumulator()
        self.detector.observe_window(
            sample.index, sample.start, sample.end,
            sample.utilization, sample.stream_bytes, in_flight_by_base,
        )
        if self._on_window is not None:
            self._on_window(sample)

    def finalize(self, now: Optional[float] = None) -> None:
        """Close the trailing partial window at ``now`` (idempotent).

        Args:
            now: The simulation end time; defaults to the bound
                simulator's clock.  Nothing is emitted when the clock sits
                exactly on the last closed boundary.
        """
        if self._finalized:
            return
        end = self._obs.now if now is None and self._obs is not None else (now or 0.0)
        self._close_through(end)  # close any whole windows first
        start = self._boundary - self.window
        span = end - start
        if span > 0.0:
            self._close(end, span)
            self._index += 1
        self._finalized = True

    # ------------------------------------------------------------------
    # Export helpers
    # ------------------------------------------------------------------
    def series_document(self) -> Dict[str, object]:
        """The windowed series as one JSON-ready document (BENCH embed)."""
        windows = self._windows
        return {
            "window_s": self.window,
            "windows": len(windows),
            "end": [w.end for w in windows],
            "p50": [w.latency["p50"] for w in windows],
            "p95": [w.latency["p95"] for w in windows],
            "p99": [w.latency["p99"] for w in windows],
            "mbps": [w.throughput_mbps for w in windows],
            "flows": [float(w.flows_completed) for w in windows],
            "culprit": self.culprit,
            "health": [event.to_dict() for event in self.health_events],
        }
