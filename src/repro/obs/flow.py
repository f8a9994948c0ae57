"""Flow-level causal tracing: the journey of every wire buffer, hop by hop.

The tracer/metrics hub (PR 1) can say *that* a co-processor was busy; this
layer says *why a byte was late*.  Each :class:`~repro.net.message.WireBuffer`
a sender driver emits becomes one **flow**: a record carrying the flow id,
the birth timestamp, and a hop log appended by every stage the buffer
passes — sender marshal, torus injection, each intermediate forwarding
co-processor, the Ethernet ingress (NIC, switch uplink, I/O-node proxy,
tree link), receive processing, the receiver inbox, and de-marshaling.

Hops are **delta-based and contiguous**: every hook closes the interval
since the record's previous hook, splitting it into declared service
components (``serialize`` / ``wire`` / ``processing``) and an implied
``queue_wait`` remainder.  By construction the hop components of a
completed flow sum exactly to its end-to-end latency, which is what makes
latency attribution trustworthy: nothing can be double counted or lost.

Like every other observability facility the recorder is **opt-in and free
when off**: the network models and drivers guard each hook with
``obs.flows.enabled``, and :data:`NULL_FLOWS` (the default, also installed
on :data:`~repro.obs.instrument.NULL_OBS`) short-circuits all of them.

Per-stream-edge end-to-end latencies are aggregated into p50/p95/p99
gauges in the metrics registry by :meth:`FlowRecorder.publish` (called from
``Instrumentation.snapshot()``), and the raw records feed the critical-path
profiler in :mod:`repro.obs.profile`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.util.stats import latency_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import WireBuffer
    from repro.obs.metrics import MetricsRegistry


#: The four duration components of a hop, in :class:`Hop` field order.
_COMPONENTS = ("serialize", "queue_wait", "wire", "processing")


class Hop(NamedTuple):
    """One closed interval of a flow's journey.

    ``start``/``end`` bracket the interval in simulated seconds; the four
    duration components partition it: ``queue_wait`` is the part not
    accounted for by the declared service components (waiting for tokens,
    resource acquisition, back-pressure, sitting in a buffer).
    """

    stage: str
    """What happened: ``sender.marshal``, ``torus.inject``, ``eth.uplink``…"""

    resource: Optional[str]
    """The contended resource serving this hop (``coproc[1]``,
    ``io-proxy[2]``, ``nic[be0]``…), or None for waits that belong to no
    single resource (back-pressure windows, inbox dwell)."""

    start: float
    end: float
    serialize: float
    queue_wait: float
    wire: float
    processing: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def service(self) -> float:
        """Time this hop actively occupied its resource (no queueing)."""
        return self.serialize + self.wire + self.processing


_new_hop = tuple.__new__


@dataclass
class FlowRecord:
    """The causal history of one wire buffer over virtual time."""

    flow_id: int
    buffer_id: int
    stream_id: str
    source: str
    nbytes: int
    birth: float
    eos: bool = False
    delivered: Optional[float] = None
    hops: List[Hop] = field(default_factory=list)
    _last_ts: float = 0.0

    @property
    def completed(self) -> bool:
        return self.delivered is not None

    @property
    def latency(self) -> float:
        """End-to-end latency (birth to de-marshal), seconds."""
        if self.delivered is None:
            raise ValueError(f"flow {self.flow_id} has not completed")
        return self.delivered - self.birth

    def _component_sums(self) -> Tuple[float, float, float, float]:
        """(serialize, queue_wait, wire, processing) summed over all hops."""
        serialize = queue_wait = wire = processing = 0.0
        for _, _, _, _, hop_serialize, hop_queue_wait, hop_wire, hop_processing in self.hops:
            serialize += hop_serialize
            queue_wait += hop_queue_wait
            wire += hop_wire
            processing += hop_processing
        return serialize, queue_wait, wire, processing


class NullFlowRecorder:
    """The disabled recorder: every hook is a no-op behind ``enabled``."""

    enabled = False

    def begin(self, buffer: "WireBuffer", now: float) -> None:
        pass

    def hop(self, buffer: "WireBuffer", stage: str, now: float,
            resource: Optional[str] = None, serialize: float = 0.0,
            wire: float = 0.0, processing: float = 0.0) -> None:
        pass

    def complete(self, buffer: "WireBuffer", now: float) -> None:
        pass

    def drop_stream(self, stream_id: str) -> int:
        return 0

    @property
    def completed(self) -> List[FlowRecord]:
        return []

    def latencies(self, stream_id: Optional[str] = None,
                  include_eos: bool = False) -> List[float]:
        return []

    @property
    def in_flight_count(self) -> int:
        return 0

    def in_flight_streams(self) -> Dict[str, int]:
        return {}

    def add_listener(
        self, listener: Callable[[FlowRecord], None], owner: str = ""
    ) -> None:
        raise RuntimeError(
            "the disabled flow recorder never completes a flow; enable "
            "flows on the Instrumentation to subscribe"
        )

    def remove_listener(self, listener: Callable[[FlowRecord], None]) -> None:
        pass

    def listener_owners(self) -> List[str]:
        return []

    @property
    def listener_count(self) -> int:
        return 0

    def publish(self, metrics: "MetricsRegistry") -> None:
        pass


#: Shared disabled recorder (one instance serves every simulator).
NULL_FLOWS = NullFlowRecorder()


class OwnedListeners:
    """An owner-tagged listener set, the push feed of two emitters:
    :class:`FlowRecorder` (each sealed flow record) and
    :class:`~repro.obs.health.ContinuousBottleneckDetector` (each health
    event).  Listeners run synchronously at emission, in subscription
    order; the emitter iterates ``_listeners``, a plain list of callables.

    ``owner`` tags a subscription for the leak sanitizer's listener census
    (``SAN206``), which names leaked subscriptions by owner: pass the label
    of the component responsible for detaching it (lint ``DET006``).
    The two lists are the mixin's slots, so a slotted class can take it.
    """

    __slots__ = ("_listeners", "_listener_owners")

    def __init__(self) -> None:
        self._listeners: List[Callable[[Any], None]] = []
        self._listener_owners: List[str] = []

    def add_listener(self, listener: Callable[[Any], None], owner: str = "") -> None:
        """Subscribe ``listener`` to every later emission."""
        self._listeners.append(listener)
        self._listener_owners.append(owner)

    def remove_listener(self, listener: Callable[[Any], None]) -> None:
        """Detach a listener; it never fires again (unknown listeners are
        ignored, so detaching is idempotent)."""
        try:
            index = self._listeners.index(listener)
        except ValueError:
            return
        del self._listeners[index]
        del self._listener_owners[index]

    def listener_owners(self) -> List[str]:
        """Owner tags of the live subscriptions (census for the sanitizer)."""
        return list(self._listener_owners)

    @property
    def listener_count(self) -> int:
        """Number of live subscriptions."""
        return len(self._listeners)


class FlowRecorder(OwnedListeners, NullFlowRecorder):
    """An enabled per-buffer flow registry.

    The recorder is a side table keyed by ``buffer_id`` — the frozen
    :class:`~repro.net.message.WireBuffer` itself stays immutable and the
    context travels with it because the *same object* traverses every
    model.  Hooks on buffers that were never begun (e.g. instrumentation
    enabled mid-stream) are silently ignored.

    Its listeners (:class:`OwnedListeners`) are the push feed the live
    sampler rides: the open window fills at completion time instead of
    scanning ``completed`` at every window boundary.

    Args:
        completed: Sealed records of a run that happened elsewhere (a sweep
            worker ships them back); the read-back side then works on them
            exactly as on the live recorder's.
    """

    enabled = True

    def __init__(self, completed: Optional[List[FlowRecord]] = None) -> None:
        OwnedListeners.__init__(self)
        self._flow_ids = itertools.count()
        self._in_flight: Dict[int, FlowRecord] = {}
        self._completed: List[FlowRecord] = [] if completed is None else list(completed)
        self.dropped = 0

    # ------------------------------------------------------------------
    # Hooks (called by drivers and network models, behind `enabled`)
    # ------------------------------------------------------------------
    def begin(self, buffer: "WireBuffer", now: float) -> None:
        """Open a flow for ``buffer`` at its birth (sender-side emit)."""
        if buffer.buffer_id in self._in_flight:
            return  # already begun (defensive: re-sent buffer)
        self._in_flight[buffer.buffer_id] = FlowRecord(
            next(self._flow_ids), buffer.buffer_id, buffer.stream_id,
            buffer.source, buffer.nbytes, now, buffer.eos, _last_ts=now,
        )

    def hop(self, buffer: "WireBuffer", stage: str, now: float,
            resource: Optional[str] = None, serialize: float = 0.0,
            wire: float = 0.0, processing: float = 0.0) -> None:
        """Close the interval since the previous hook as one hop.

        The declared service components are clipped into the interval; the
        remainder is recorded as ``queue_wait``, so hops stay an exact
        partition of the flow's lifetime even if a caller over-declares
        (e.g. passes a jittered baseline cost).
        """
        record = self._in_flight.get(buffer.buffer_id)
        if record is None:
            return
        start = record._last_ts
        interval = now - start
        service = serialize + wire + processing
        queue_wait = interval - service
        if queue_wait < 0.0:
            # Over-declared service (rounding/jitter): scale it into the
            # interval rather than inventing negative waiting.
            scale = interval / service if service > 0.0 else 0.0
            serialize *= scale
            wire *= scale
            processing *= scale
            queue_wait = 0.0
        # tuple.__new__ skips the Python-level __new__ NamedTuple generates.
        record.hops.append(_new_hop(
            Hop, (stage, resource, start, now, serialize, queue_wait, wire, processing)
        ))
        record._last_ts = now

    def complete(self, buffer: "WireBuffer", now: float) -> None:
        """Seal the flow: the receiver driver finished de-marshaling."""
        record = self._in_flight.pop(buffer.buffer_id, None)
        if record is None:
            return
        if now > record._last_ts:
            # Close any trailing gap so hops always sum to the latency.
            record.hops.append(Hop(
                "deliver.tail", None, record._last_ts, now,
                0.0, now - record._last_ts, 0.0, 0.0,
            ))
            record._last_ts = now
        record.delivered = now
        self._completed.append(record)
        for listener in self._listeners:
            listener(record)

    def drop_stream(self, stream_id: str) -> int:
        """Discard in-flight records of a closed channel's stream.

        A channel torn down mid-flight (stop condition, query termination)
        strands its travelling buffers; their records are removed so the
        in-flight table cannot leak across a run.  Returns the number of
        records dropped.
        """
        stale = [
            buffer_id
            for buffer_id, record in self._in_flight.items()
            if record.stream_id == stream_id
        ]
        for buffer_id in stale:
            del self._in_flight[buffer_id]
        self.dropped += len(stale)
        return len(stale)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    @property
    def completed(self) -> List[FlowRecord]:
        """Completed flows, in completion order."""
        return self._completed

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    def in_flight_streams(self) -> Dict[str, int]:
        """In-flight record counts keyed by stream edge, discovery order."""
        counts: Dict[str, int] = {}
        for record in self._in_flight.values():
            counts[record.stream_id] = counts.get(record.stream_id, 0) + 1
        return counts

    def latencies(self, stream_id: Optional[str] = None,
                  include_eos: bool = False) -> List[float]:
        """End-to-end latencies of completed data flows, seconds.

        Args:
            stream_id: Restrict to one stream edge (None = all).
            include_eos: Count the empty end-of-stream marker buffers too
                (excluded by default; they carry no payload).
        """
        return [
            record.latency
            for record in self._completed
            if (include_eos or not record.eos)
            and (stream_id is None or record.stream_id == stream_id)
        ]

    def stream_ids(self) -> List[str]:
        """Distinct stream edges with at least one completed flow."""
        seen: Dict[str, None] = {}
        for record in self._completed:
            seen.setdefault(record.stream_id, None)
        return list(seen)

    # ------------------------------------------------------------------
    # Aggregation into the metrics registry
    # ------------------------------------------------------------------
    def publish(self, metrics: "MetricsRegistry") -> None:
        """Publish per-stream-edge latency aggregates as gauges/counters.

        For every stream edge with completed data flows:

        * ``flow.completed[<stream>]`` — gauge, completed data buffers;
        * ``flow.latency.p50/p95/p99[<stream>]`` — gauges, seconds;
        * ``flow.latency.mean[<stream>]`` — gauge, seconds;
        * ``flow.time.serialize/queue_wait/wire/processing[<stream>]`` —
          gauges, summed seconds per component over all hops.

        Gauges (not counters) so repeated publishes are idempotent.
        """
        per_stream: Dict[str, Tuple[List[float], List[float]]] = {}
        for record in self._completed:
            if record.eos:
                continue
            entry = per_stream.get(record.stream_id)
            if entry is None:
                entry = per_stream[record.stream_id] = ([], [0.0, 0.0, 0.0, 0.0])
            latencies, totals = entry
            latencies.append(record.latency)
            for index, value in enumerate(record._component_sums()):
                totals[index] += value
        for stream_id, (latencies, totals) in per_stream.items():
            summary = latency_summary(latencies)
            metrics.set_gauge(f"flow.completed[{stream_id}]", summary["n"])
            for tag in ("mean", "p50", "p95", "p99"):
                metrics.set_gauge(f"flow.latency.{tag}[{stream_id}]", summary[tag])
            for component, value in zip(_COMPONENTS, totals):
                metrics.set_gauge(f"flow.time.{component}[{stream_id}]", value)
