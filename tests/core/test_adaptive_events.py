"""The adaptive controller reads each detector event once, in order.

After each simulator step, ``AdaptiveController.run`` hands ``_on_health``
the events the detector appended during that step.
A step may append none or several, so a controller that re-read the last
event or kept only the newest would decide on a different unhealthy set.
"""

from repro.core.adaptive import AdaptiveController
from repro.core.experiments.adaptive import run_adaptive_point


def test_the_controller_reads_every_event_once_in_emission_order(monkeypatch):
    batches = []
    on_health = AdaptiveController._on_health

    def recording(controller, events):
        batches.append(list(events))
        on_health(controller, events)

    monkeypatch.setattr(AdaptiveController, "_on_health", recording)
    adaptive = run_adaptive_point("fig15", smoke=True).adaptive
    read = [event for batch in batches for event in batch]
    events = adaptive.live.health_events
    assert len(events) >= 2 and any(batch == [] for batch in batches)
    assert len(read) == len(events)
    assert all(seen is event for seen, event in zip(read, events))
    assert adaptive.migrations
