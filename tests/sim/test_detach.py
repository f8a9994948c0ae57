"""``Simulator.detach``: a callback chain started with no process around it.

The kernel-internal primitive behind a buffer in flight (torus/TCP
forwarding): no ``Process``, no generator, no completion event; the
chain's first step runs when its start event is dispatched.
"""

import pytest

import repro
import repro.sim
from repro.obs import Instrumentation
from repro.sim import Resource, Simulator, Timeout
from repro.sim.events import Chain
from repro.sim.introspect import waiters_of
from repro.util.errors import SimulationError


class Steps(Chain):
    """A chain of ``(delay, action)`` steps: each action runs, then the
    chain waits ``delay`` before the next; ``None`` ends it."""

    __slots__ = ("sim", "plan")

    def __init__(self, sim, *plan):
        self.sim = sim
        self.plan = list(plan)

    def step(self, _event):
        delay, action = self.plan.pop(0)
        action()
        if delay is not None:
            Timeout(self.sim, delay).callbacks.append(self.step)


def test_default_start_is_urgent_and_zero_delay():
    sim = Simulator()
    order = []
    chain = Steps(
        sim,
        (1.0, lambda: order.append(("detached", sim.now))),
        (None, lambda: order.append(("detached-done", sim.now))),
    )

    def parent():
        yield sim.timeout(2.0)
        bystander = sim.timeout(0.0)
        bystander.callbacks.append(lambda _e: order.append(("normal", sim.now)))
        sim.detach(chain.step)
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

    def parent():
        yield sim.timeout(1.0)
        sim.detach(Steps(sim, (None, lambda: seen.append(sim.now))).step, sim.timeout(0.5))
        # The instant is still quiescent: the grant is delivered synchronously.
        assert resource.request().callbacks is None

    sim.process(parent())
    sim.run()
    assert seen == [1.5]


def test_an_urgent_start_makes_the_instant_busy():
    sim = Simulator()
    resource = Resource(sim)

    def parent():
        yield sim.timeout(1.0)
        sim.detach(Steps(sim, (None, lambda: None)).step)
        assert resource.request().callbacks is not None

    sim.process(parent())
    sim.run()


def test_no_process_and_no_completion_event():
    plain, observed = Simulator(), Simulator(obs=Instrumentation())

    for sim in (plain, observed):
        sim.detach(Steps(sim, (1.0, lambda: None), (1.0, lambda: None), (None, lambda: None)).step)
        sim.run()
    assert plain.events_dispatched == 3  # the start and two timeouts; no end event
    counters = observed.obs.metrics.snapshot(observed.now).counters
    assert "sim.processes_started" not in counters
    assert counters["sim.timeouts_created"] == 2


def test_a_failed_event_is_handed_to_the_step():
    handled, unhandled = Simulator(), Simulator()
    caught = []

    class Catcher(Chain):
        __slots__ = ("defuse",)

        def __init__(self, defuse):
            self.defuse = defuse

        def step(self, event):
            caught.append(str(event.value))
            event._defused = self.defuse

    for sim, defuse in ((handled, True), (unhandled, False)):
        sim.event().fail(ValueError("boom")).callbacks.append(Catcher(defuse).step)
    handled.run()  # defused by the step: the run does not flag it
    with pytest.raises(SimulationError, match="unhandled failure.*boom"):
        unhandled.run()
    assert caught == ["boom", "boom"]


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_an_escaping_exception_stops_the_run_loudly(scheduler):
    sim = Simulator(scheduler=scheduler)

    def lose():
        raise KeyError("lost buffer")

    sim.detach(Steps(sim, (1.0, lambda: None), (None, lose)).step)
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
        raise KeyError("not a chain")

    sim.timeout(1.0).callbacks.append(lose)
    with pytest.raises(KeyError, match="not a chain"):
        sim.run()


def test_the_waiter_audit_sees_a_parked_chain():
    sim = Simulator()
    gate = sim.event()

    class Parked(Chain):
        __slots__ = ()

        def step(self, _event):
            gate.callbacks.append(self.step)

    sim.detach(Parked().step)
    sim.run()
    (waiter,) = waiters_of(gate)
    assert isinstance(waiter, Parked) and waiter.is_alive


def test_it_is_kernel_internal():
    assert "Chain" not in repro.sim.__all__ and not hasattr(repro.sim, "Chain")
    assert not hasattr(repro, "Chain") and not hasattr(repro, "detach")
