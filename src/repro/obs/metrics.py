"""Metric primitives over virtual time: counters, gauges, time-weighted stats.

A :class:`MetricsRegistry` holds named metric instruments.  The interesting
one for a discrete-event simulation is :class:`TimeWeightedStat`: it
integrates a piecewise-constant level (a resource's busy slot count, a
store's queue depth) over *simulated* time, so "utilization" and "mean
queue depth" mean what they do in queueing theory, not "mean over samples".

Names are flat strings; per-entity series use the ``group[key]`` convention
(``resource.busy[coproc[1]]``), which keeps the registry a plain dictionary
and makes summaries greppable.

Names are the public key; a hook that fires per event resolves its
instrument once (``registry.counter(name)``) and then touches the object
directly — the bound-instrument contract in ``docs/observability.md``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, DefaultDict, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Simulator


class Counter:
    """A monotonically accumulating value (bytes sent, events processed)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins level, with the historical peak retained."""

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value: float = 0.0
        self.peak: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value


class TimeWeightedStat:
    """A piecewise-constant level integrated over virtual time.

    ``update(now, value)`` closes the interval the previous level was held
    for and starts a new one.  The dwell histogram maps each observed level
    to the total simulated time spent at that level, which is the
    time-weighted distribution of queue depths / busy counts.
    """

    __slots__ = ("current", "integral", "maximum", "_last_ts", "_start_ts", "dwell")

    def __init__(self, start_ts: float = 0.0, value: float = 0.0) -> None:
        self.current = value
        self.integral = 0.0
        self.maximum = value
        self._last_ts = start_ts
        self._start_ts = start_ts
        self.dwell: DefaultDict[float, float] = defaultdict(float)

    def update(self, now: float, value: float) -> None:
        """Record that the level changed to ``value`` at time ``now``.

        Holding 0 at 0 is a no-op: it would move only ``dwell[0]``, unread.
        """
        current = self.current
        if not (value or current):
            return
        dt = now - self._last_ts
        if dt > 0.0:
            self.integral += current * dt
            self.dwell[current] += dt
        self._last_ts = now
        self.current = value
        if value > self.maximum:
            self.maximum = value

    def finalize(self, now: float) -> None:
        """Close the open interval at ``now`` (idempotent for a fixed now)."""
        self.update(now, self.current)

    def integral_at(self, now: float) -> float:
        """The level integral evaluated at ``now`` without mutating state.

        Extends the closed integral by the current level held since the
        last update, so window boundaries that carry no event of their
        own can still be evaluated exactly (the live sampler's windows
        depend on this).  ``now`` before the last update returns the
        closed integral unchanged.
        """
        integral = self.integral
        if now > self._last_ts:
            integral += self.current * (now - self._last_ts)
        return integral

    def elapsed(self, now: Optional[float] = None) -> float:
        """Observed virtual time span of this series."""
        end = self._last_ts if now is None else max(now, self._last_ts)
        return end - self._start_ts

    def mean(self, now: Optional[float] = None) -> float:
        """Time-weighted mean level over the observed span (0 if empty)."""
        span = self.elapsed(now)
        if span <= 0.0:
            return self.current
        integral = self.integral
        if now is not None and now > self._last_ts:
            integral += self.current * (now - self._last_ts)
        return integral / span

    def time_at_or_above(self, level: float) -> float:
        """Total closed-interval time the level was >= ``level``."""
        return sum(t for v, t in self.dwell.items() if v >= level)


@dataclass(frozen=True)
class MetricsSnapshot:
    """A plain-data summary of a registry at one point in virtual time."""

    now: float
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    peaks: Dict[str, float] = field(default_factory=dict)
    time_weighted: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def peak(self, name: str) -> float:
        return self.peaks.get(name, 0.0)


class MetricsRegistry:
    """A flat namespace of counters, gauges, and time-weighted stats."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.series: Dict[str, TimeWeightedStat] = {}
        self.kernel: Optional["Simulator"] = None  # whose own counts to report (hub's bind)

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        try:
            return self.counters[name]
        except KeyError:
            instrument = self.counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        try:
            return self.gauges[name]
        except KeyError:
            instrument = self.gauges[name] = Gauge()
            return instrument

    def time_weighted(self, name: str, start_ts: float = 0.0,
                      value: float = 0.0) -> TimeWeightedStat:
        try:
            return self.series[name]
        except KeyError:
            instrument = self.series[name] = TimeWeightedStat(start_ts, value)
            return instrument

    # ------------------------------------------------------------------
    # Convenience mutators
    # ------------------------------------------------------------------
    def add(self, name: str, amount: float = 1.0) -> None:
        try:
            self.counters[name].value += amount
        except KeyError:
            self.counter(name).value += amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, float]:
        """Every counter's value by name, the kernel's own (once nonzero) first."""
        kernel = self.kernel
        values: Dict[str, float] = {} if kernel is None else {
            name: float(count)
            for name, count in (("sim.events_processed", kernel.events_dispatched),
                                ("sim.timeouts_created", kernel.timeouts_created))
            if count
        }
        values.update((name, c.value) for name, c in self.counters.items())
        return values

    def snapshot(self, now: float) -> MetricsSnapshot:
        """Freeze the registry into plain data, closing open intervals."""
        for series in self.series.values():
            series.finalize(now)
        return MetricsSnapshot(
            now=now,
            counters=self.counter_values(),
            gauges={name: g.value for name, g in self.gauges.items()},
            peaks={name: g.peak for name, g in self.gauges.items()},
            time_weighted={
                name: {
                    "mean": s.mean(now),
                    "max": s.maximum,
                    "integral": s.integral,
                    "current": s.current,
                }
                for name, s in self.series.items()
            },
        )
