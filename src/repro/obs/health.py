"""Continuous bottleneck detection: typed health events over live windows.

The post-hoc :class:`~repro.obs.profile.BottleneckReport` answers "what
was slow" after a run completes; this module answers it **while the run
is still going**, which is what a future adaptive runtime needs to
migrate a stream processor off a saturated I/O proxy without restarting
the CQ.  A :class:`ContinuousBottleneckDetector` consumes the windowed
utilization/delivery samples the :class:`~repro.obs.live.LiveSampler`
produces and emits :class:`HealthEvent` records of three kinds:

* ``saturated`` — a resource's windowed utilization stayed at or above
  the high-water threshold for enough consecutive windows;
* ``recovered`` — a saturated resource dropped back below the low-water
  threshold (or a degraded stream delivered again);
* ``degraded`` — a hardware element was reported failed/damaged (the
  fault-injection harness calls :meth:`on_failure` the moment it kills a
  node or degrades a link), or a previously-delivering stream stalled:
  ``stall_windows`` consecutive windows passed with bytes in flight but
  none delivered.

Hysteresis is built in twice over: saturation and recovery use separate
thresholds (``high`` / ``low``) *and* separate consecutive-window counts
(``up_windows`` / ``down_windows``), so a resource oscillating around a
threshold does not flap; the ranked **culprit** is the resource that led
the utilization ranking in the most saturated windows, so a brief spike
elsewhere (or an idle run-out tail) cannot steal the verdict.

Everything is a pure function of the window stream — no wall clock, no
randomness — so for a fixed seed the emitted event sequence is
deterministic, which the mid-run regression tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.obs.flow import OwnedListeners

__all__ = [
    "HealthEvent",
    "ContinuousBottleneckDetector",
    "resource_scope",
    "base_stream",
    "utilization_leader",
]


def resource_scope(resource: str) -> str:
    """Classify a metrics resource key into the paper's hardware scopes.

    ``cpu[...]``/``coproc[...]``/``nic[...]`` belong to one node;
    ``io-proxy[...]``/``tree[...]`` to one pset (its I/O path);
    ``switch-uplink...``/``tcp-window...`` to a link.  Anything else is
    reported with the generic ``resource`` scope.
    """
    family = resource.split("[", 1)[0]
    if family in ("cpu", "coproc", "nic"):
        return "node"
    if family in ("io-proxy", "tree"):
        return "pset"
    if family in ("switch-uplink", "tcp-window"):
        return "link"
    return "resource"


def base_stream(stream_id: str) -> str:
    """The stable identity of a stream across replans and migrations.

    Deployment prefixes name streams ``"<label>/<edge>"``; replacement
    deployments suffix the label
    (:meth:`repro.core.multiquery.MultiQuerySession.replace`) —
    ``"<label>+r<N>/<edge>"`` for fault replans and
    ``"<label>+g<N>/<edge>"`` for migration generations.  All map to
    ``<label>``.  Unprefixed stream edges map to themselves.
    """
    prefix = stream_id.split("/", 1)[0]
    return prefix.split("+", 1)[0]


def utilization_leader(
    utilization: Mapping[str, float],
) -> Tuple[Optional[str], float]:
    """(name, utilization) of the busiest resource of one window.

    Ties go to the first name in sorted order; ``(None, 0.0)`` when nothing
    was busy.  Read by the detector's ranking and by the busiest-resource
    column of the ``repro top`` table, so the two name the same leader.
    """
    leader: Optional[str] = None
    best = 0.0
    for name in sorted(utilization):
        value = utilization[name]
        if value > best:
            best = value
            leader = name
    return leader, best


@dataclass(frozen=True, slots=True)
class HealthEvent:
    """One typed state transition of a monitored subject.

    Attributes:
        time: Simulated second the transition was detected.
        window: Index of the live window that detected it (-1 for
            transitions reported between windows, e.g. a fault hook).
        kind: ``saturated`` / ``degraded`` / ``recovered``.
        scope: ``node`` / ``pset`` / ``link`` / ``stream`` / ``resource``.
        subject: The monitored entity (``io-proxy[1]``, ``node:bg/cn17``,
            ``stream:s0``).
        value: The measurement that triggered the transition (windowed
            utilization for saturation, delivered bytes for streams).
        detail: Free-form context for humans.
    """

    time: float
    window: int
    kind: str
    scope: str
    subject: str
    value: float = 0.0
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "window": self.window,
            "kind": self.kind,
            "scope": self.scope,
            "subject": self.subject,
            "value": self.value,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return (
            f"[t={self.time:.6f} w={self.window}] {self.kind:<9} "
            f"{self.scope}:{self.subject}"
            + (f" ({self.detail})" if self.detail else "")
        )


#: Per-resource saturation state machine states.
_HEALTHY = "healthy"
_SATURATED = "saturated"


class ContinuousBottleneckDetector(OwnedListeners):
    """Re-ranks saturated resources each window, with hysteresis.

    Its listeners (:class:`~repro.obs.flow.OwnedListeners`) are the push
    feed an adaptive controller rides: every event appended to
    :attr:`events` — window transitions, fault hooks, replacement
    deliveries — is also delivered to each listener.

    Args:
        high: Windowed utilization at or above which a resource counts
            toward saturation (fraction of its capacity).
        low: Utilization at or below which a saturated resource counts
            toward recovery; must not exceed ``high`` (the gap is the
            hysteresis band).
        up_windows: Consecutive qualifying windows before ``saturated``
            is emitted.
        down_windows: Consecutive qualifying windows before
            ``recovered`` is emitted.
        stall_windows: Consecutive zero-delivery windows (with buffers
            still in flight) before a stream counts as stalled.  Healthy
            streams deliver in bursts — a flow often spans several
            windows — so this must exceed the longest burst gap or quiet
            runs flood with degraded/recovered pairs.
    """

    __slots__ = (
        "high", "low", "up_windows", "down_windows", "stall_windows",
        "events", "_state", "_above", "_below", "_lead",
        "_lead_counts", "_stream_seen", "_stream_degraded", "_stall_streak",
        "_recovered_prefixes",
    )

    def __init__(self, high: float = 0.85, low: float = 0.60,
                 up_windows: int = 2, down_windows: int = 2,
                 stall_windows: int = 3):
        if not 0.0 < high <= 1.5:
            raise ValueError(f"high threshold must be in (0, 1.5], got {high!r}")
        if low > high:
            raise ValueError(f"low {low!r} must not exceed high {high!r}")
        if up_windows < 1 or down_windows < 1 or stall_windows < 1:
            raise ValueError("window counts must be >= 1")
        OwnedListeners.__init__(self)
        self.high = high
        self.low = low
        self.up_windows = up_windows
        self.down_windows = down_windows
        self.stall_windows = stall_windows
        self.events: List[HealthEvent] = []
        self._state: Dict[str, str] = {}
        self._above: Dict[str, int] = {}
        self._below: Dict[str, int] = {}
        self._lead: Optional[str] = None
        self._lead_counts: Dict[str, int] = {}   # saturated-window leads
        self._stream_seen: Dict[str, bool] = {}   # base -> delivered before
        self._stream_degraded: Dict[str, bool] = {}
        self._stall_streak: Dict[str, int] = {}
        self._recovered_prefixes: Dict[str, bool] = {}

    def _emit(self, events: List[HealthEvent]) -> None:
        self.events.extend(events)
        if self._listeners:
            for event in events:
                for listener in self._listeners:
                    listener(event)

    # ------------------------------------------------------------------
    # Reading back
    # ------------------------------------------------------------------
    @property
    def saturated(self) -> List[str]:
        """Resources currently in the saturated state, name order."""
        return sorted(
            name for name, state in self._state.items() if state == _SATURATED
        )

    @property
    def culprit(self) -> Optional[str]:
        """The run's dominant bottleneck so far.

        The resource that led the utilization ranking in the most
        windows while saturated (ties broken by name), so an idle tail
        or a brief spike elsewhere cannot steal the verdict from the
        resource that actually gated the run.  Before any window
        saturates, falls back to the current utilization leader.
        """
        if self._lead_counts:
            return max(sorted(self._lead_counts),
                       key=lambda name: self._lead_counts[name])
        return self._lead

    # ------------------------------------------------------------------
    # Window feed (called by the LiveSampler at each boundary)
    # ------------------------------------------------------------------
    def observe_window(
        self,
        index: int,
        start: float,
        end: float,
        utilization: Mapping[str, float],
        stream_bytes: Mapping[str, float],
        stream_in_flight: Mapping[str, int],
    ) -> List[HealthEvent]:
        """Absorb one closed window; returns the events it triggered."""
        emitted: List[HealthEvent] = []
        for name in sorted(utilization):
            value = utilization[name]
            state = self._state.get(name, _HEALTHY)
            if value >= self.high:
                self._above[name] = self._above.get(name, 0) + 1
                self._below[name] = 0
                if state == _HEALTHY and self._above[name] >= self.up_windows:
                    self._state[name] = _SATURATED
                    emitted.append(HealthEvent(
                        time=end, window=index, kind="saturated",
                        scope=resource_scope(name), subject=name, value=value,
                        detail=f"util >= {self.high:g} for "
                               f"{self._above[name]} window(s)",
                    ))
            elif value <= self.low:
                self._below[name] = self._below.get(name, 0) + 1
                self._above[name] = 0
                if state == _SATURATED and self._below[name] >= self.down_windows:
                    self._state[name] = _HEALTHY
                    emitted.append(HealthEvent(
                        time=end, window=index, kind="recovered",
                        scope=resource_scope(name), subject=name, value=value,
                        detail=f"util <= {self.low:g} for "
                               f"{self._below[name]} window(s)",
                    ))
            else:
                # Inside the hysteresis band: both streaks reset, state holds.
                self._above[name] = 0
                self._below[name] = 0

        self._rerank(utilization)
        emitted.extend(self._observe_streams(
            index, end, stream_bytes, stream_in_flight
        ))
        self._emit(emitted)
        return emitted

    def _rerank(self, utilization: Mapping[str, float]) -> None:
        """Track the utilization leader and its saturated-lead tally."""
        leader, best = utilization_leader(utilization)
        if leader is None:
            return
        self._lead = leader
        if best >= self.high:
            self._lead_counts[leader] = self._lead_counts.get(leader, 0) + 1

    def _observe_streams(
        self,
        index: int,
        end: float,
        stream_bytes: Mapping[str, float],
        stream_in_flight: Mapping[str, int],
    ) -> List[HealthEvent]:
        emitted: List[HealthEvent] = []
        actives = sorted(set(stream_bytes) | set(stream_in_flight))  # lint: disable=DET003
        for base in actives:
            delivered = stream_bytes.get(base, 0.0)
            in_flight = stream_in_flight.get(base, 0)
            if delivered > 0.0:
                self._stall_streak[base] = 0
                if self._stream_degraded.get(base):
                    self._stream_degraded[base] = False
                    emitted.append(HealthEvent(
                        time=end, window=index, kind="recovered",
                        scope="stream", subject=f"stream:{base}",
                        value=delivered, detail="delivery resumed",
                    ))
                self._stream_seen[base] = True
            elif self._stream_seen.get(base) and in_flight > 0:
                streak = self._stall_streak.get(base, 0) + 1
                self._stall_streak[base] = streak
                if (streak >= self.stall_windows
                        and not self._stream_degraded.get(base)):
                    self._stream_degraded[base] = True
                    emitted.append(HealthEvent(
                        time=end, window=index, kind="degraded",
                        scope="stream", subject=f"stream:{base}",
                        value=float(in_flight),
                        detail=f"no delivery for {streak} window(s) "
                               "with buffers in flight",
                    ))
        return emitted

    # ------------------------------------------------------------------
    # Out-of-band transitions (fault hooks, replacement deliveries)
    # ------------------------------------------------------------------
    def on_failure(self, now: float, subject: str, scope: str,
                   window: int = -1, detail: str = "") -> HealthEvent:
        """Record a reported hardware failure as an immediate ``degraded``."""
        event = HealthEvent(
            time=now, window=window, kind="degraded", scope=scope,
            subject=subject, detail=detail or "reported failed",
        )
        self._emit([event])
        return event

    def on_delivery(self, now: float, stream_id: str,
                    window: int = -1) -> Optional[HealthEvent]:
        """Note a flow delivery; first delivery of a replacement deployment
        (``<label>+rN/...`` replan or ``<label>+gN/...`` migration prefix)
        emits ``recovered`` for the stream."""
        prefix = stream_id.split("/", 1)[0]
        if "+" not in prefix or self._recovered_prefixes.get(prefix):
            return None
        self._recovered_prefixes[prefix] = True
        base = base_stream(stream_id)
        if self._stream_degraded.get(base):
            self._stream_degraded[base] = False
        event = HealthEvent(
            time=now, window=window, kind="recovered", scope="stream",
            subject=f"stream:{base}",
            detail=f"replacement {prefix}/ delivered",
        )
        self._emit([event])
        return event
