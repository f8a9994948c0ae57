"""The disabled hub a simulator carries by default, with its disabled flow
recorder and live sampler: a run without instrumentation loads this module
and :mod:`repro.obs.tracer`, not the enabled twins in
:mod:`repro.obs.instrument`, :mod:`repro.obs.flow` and :mod:`repro.obs.live`
(which re-export these names)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.obs.tracer import NULL_TRACER, NullTracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.message import WireBuffer
    from repro.obs.flow import FlowRecord
    from repro.obs.health import HealthEvent
    from repro.obs.instrument import Instrumentation
    from repro.obs.live import WindowSample
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.core import Simulator

#: Default live-sampler window in simulated seconds (here, so the CLI help
#: quotes it without loading the sampler).  The reproduced runs span ms to
#: tens of ms, so 2 ms yields a handful to a few dozen windows per point.
DEFAULT_WINDOW = 0.002


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
    def completed(self) -> List["FlowRecord"]:
        return []

    def latencies(self, stream_id: Optional[str] = None,
                  include_eos: bool = False) -> List[float]:
        return []

    @property
    def in_flight_count(self) -> int:
        return 0

    def in_flight_streams(self) -> Dict[str, int]:
        return {}

    def publish(self, metrics: "MetricsRegistry") -> None:
        pass


#: Shared disabled recorder (one instance serves every simulator).
NULL_FLOWS = NullFlowRecorder()


class NullLiveSampler:
    """The disabled sampler: every hook no-ops behind ``enabled``."""

    __slots__ = ()

    enabled = False
    window = 0.0

    @property
    def windows(self) -> List["WindowSample"]:
        return []

    @property
    def health_events(self) -> List["HealthEvent"]:
        return []

    def latencies(self) -> List[float]:
        return []

    def bind(self, obs: "Instrumentation") -> None:
        pass

    def on_step(self, now: float) -> None:
        pass

    def on_failure(self, subject: str, scope: str, detail: str = "") -> None:
        pass

    def note_capacity(self, key: str, capacity: float) -> None:
        pass

    def finalize(self, now: Optional[float] = None) -> None:
        pass


#: Shared disabled sampler (one instance serves every hub).
NULL_LIVE = NullLiveSampler()


class NullInstrumentation:
    """The disabled hub installed on every simulator by default."""

    enabled = False
    tracer: NullTracer = NULL_TRACER
    metrics: Optional["MetricsRegistry"] = None
    flows: NullFlowRecorder = NULL_FLOWS
    live: NullLiveSampler = NULL_LIVE

    def bind(self, sim: "Simulator") -> None:  # pragma: no cover - never bound
        pass


#: Shared disabled instrumentation (one instance serves every simulator).
NULL_OBS = NullInstrumentation()
