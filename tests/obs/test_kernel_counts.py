"""The kernel counts its own events and timeouts; every reader sees them.

``sim.events_processed`` is ``Simulator.events_dispatched`` and
``sim.timeouts_created`` is ``Simulator.timeouts_created``: the hub no
longer counts either per event.  The registry reports them ahead of its
own counters, each only once nonzero (the first-use rule: a count that
never moved has no key).  The expected values below are derived by hand
from the schedule, so they are also what per-event counting produced.
"""

import pytest

from repro.obs import Instrumentation
from repro.obs.export import utilization_summary
from repro.obs.tracer import NULL_TRACER
from repro.sim import HeapScheduler, Simulator, Store


def _readers(obs):
    """``(events, timeouts)`` as each reader sees them (``None``: no key)."""
    frozen = [
        obs.snapshot().counters,
        obs.metrics.snapshot(obs.now).counters,
        obs.metrics.counter_values(),
    ]
    seen = {
        (counters.get("sim.events_processed"), counters.get("sim.timeouts_created"))
        for counters in frozen
    }
    assert len(seen) == 1, frozen
    return seen.pop()


@pytest.mark.parametrize("scheduler", [None, HeapScheduler], ids=["calendar", "heap"])
def test_a_run_without_timeouts_has_no_timeout_key(scheduler):
    obs = Instrumentation(tracer=NULL_TRACER)
    sim = Simulator(obs=obs, scheduler=scheduler() if scheduler else None)
    store = Store(sim, capacity=1, name="box")

    def producer():
        for item in range(3):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            yield store.get()

    sim.process(producer(), name="producer")
    sim.process(consumer(), name="consumer")
    sim.run()
    events, timeouts = _readers(obs)
    assert timeouts is None
    assert events == float(sim.events_dispatched) > 0
    assert "sim.timeouts_created" not in utilization_summary(obs)
    assert "sim.events_processed" in utilization_summary(obs)


def test_an_unrun_simulator_reports_no_kernel_counts():
    obs = Instrumentation(tracer=NULL_TRACER)
    Simulator(obs=obs)
    assert _readers(obs) == (None, None)
    assert list(obs.snapshot().counters) == []


@pytest.mark.parametrize("scheduler", [None, HeapScheduler], ids=["calendar", "heap"])
def test_a_run_stopped_mid_stream_counts_exactly_to_that_instant(scheduler):
    obs = Instrumentation(tracer=NULL_TRACER)
    sim = Simulator(obs=obs, scheduler=scheduler() if scheduler else None)

    def ticker():
        for _ in range(10):
            yield sim.timeout(1.0)

    sim.process(ticker(), name="ticker")
    # By t=4.5: the process start and the timeouts due at 1, 2, 3 and 4
    # were dispatched; the timeouts due at 1..5 were created.
    sim.run(until=4.5)
    assert _readers(obs) == (5.0, 5.0)
    counters = list(obs.snapshot().counters)
    assert counters[:3] == [
        "sim.events_processed", "sim.timeouts_created", "sim.processes_started",
    ]
    # The rest of the stream: 10 timeouts fired, 10 created, plus the
    # start and the process's own completion event.
    sim.run()
    assert _readers(obs) == (12.0, 10.0)
