"""``Simulator.detach``: a generator driven with no process around it.

The kernel-internal primitive behind a buffer in flight (torus/TCP
forwarding): no ``Process``, no completion event, started on an event.
"""

import pytest

import repro
import repro.sim
from repro.obs import Instrumentation
from repro.sim import Resource, Simulator, Store
from repro.sim.events import Detached
from repro.sim.introspect import waiters_of
from repro.util.errors import SimulationError


def test_default_start_is_urgent_and_zero_delay():
    sim = Simulator()
    order = []

    def body():
        order.append(("detached", sim.now))
        yield sim.timeout(1.0)
        order.append(("detached-done", sim.now))

    def parent():
        yield sim.timeout(2.0)
        bystander = sim.timeout(0.0)
        bystander.callbacks.append(lambda _e: order.append(("normal", sim.now)))
        sim.detach(body())
        order.append(("parent", sim.now))
        yield bystander

    sim.process(parent())
    sim.run()
    # Where Initialize would sit: after the spawner's step, before any normal event.
    assert order == [("parent", 2.0), ("detached", 2.0), ("normal", 2.0), ("detached-done", 3.0)]


def test_started_on_an_event_it_pushes_nothing_now():
    sim = Simulator()
    resource = Resource(sim)
    seen = []

    def body():
        seen.append(sim.now)
        return
        yield

    def parent():
        yield sim.timeout(1.0)
        sim.detach(body(), sim.timeout(0.5))
        # The instant is still quiescent: the grant is delivered synchronously.
        assert resource.request().callbacks is None

    sim.process(parent())
    sim.run()
    assert seen == [1.5]


def test_an_urgent_start_makes_the_instant_busy():
    sim = Simulator()
    resource = Resource(sim)

    def body():
        return
        yield

    def parent():
        yield sim.timeout(1.0)
        sim.detach(body())
        assert resource.request().callbacks is not None

    sim.process(parent())
    sim.run()


def test_no_process_and_no_completion_event():
    plain, observed = Simulator(), Simulator(obs=Instrumentation())

    def body(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    for sim in (plain, observed):
        sim.detach(body(sim))
        sim.run()
    assert plain.events_dispatched == 3  # the start and two timeouts; no end event
    counters = observed.obs.metrics.snapshot(observed.now).counters
    assert "sim.processes_started" not in counters
    assert counters["sim.timeouts_created"] == 2


def test_already_processed_events_are_consumed_in_a_loop():
    sim = Simulator()
    store = Store(sim)
    got = []

    def body():
        done = sim.timeout(0.0)
        yield sim.timeout(1.0)
        assert done.processed
        for _ in range(5000):  # far beyond the recursion limit, were it recursive
            yield done
        got.append((yield store.get()))

    def feeder():
        yield store.put("item")

    sim.detach(body())
    sim.process(feeder())
    sim.run()
    assert got == ["item"]


def test_a_failed_event_is_thrown_into_the_generator():
    sim = Simulator()
    caught = []

    def body():
        try:
            yield sim.event().fail(ValueError("boom"))
        except ValueError as exc:
            caught.append(str(exc))

    sim.detach(body())
    sim.run()  # delivered, hence defused: the run does not flag it
    assert caught == ["boom"]


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_an_escaping_exception_stops_the_run_loudly(scheduler):
    sim = Simulator(scheduler=scheduler)

    def body():
        yield sim.timeout(1.0)
        raise KeyError("lost buffer")

    sim.detach(body())
    later = sim.timeout(5.0)
    with pytest.raises(SimulationError, match="unhandled failure.*lost buffer") as info:
        sim.run()
    assert isinstance(info.value.__cause__, KeyError)
    assert sim.now == 1.0 and not later.processed  # stopped there, state intact
    sim.run()
    assert later.processed


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_a_plain_callback_failure_is_not_rewrapped(scheduler):
    sim = Simulator(scheduler=scheduler)

    def lose(_event):
        raise KeyError("not detached")

    sim.timeout(1.0).callbacks.append(lose)
    with pytest.raises(KeyError, match="not detached"):
        sim.run()


def test_the_waiter_audit_sees_a_parked_detached_generator():
    sim = Simulator()
    gate = sim.event()

    def body():
        yield gate

    sim.detach(body())
    sim.run()
    (waiter,) = waiters_of(gate)
    assert isinstance(waiter, Detached) and waiter.is_alive


def test_it_is_kernel_internal():
    assert "Detached" not in repro.sim.__all__ and not hasattr(repro.sim, "Detached")
    assert not hasattr(repro, "Detached") and not hasattr(repro, "detach")
