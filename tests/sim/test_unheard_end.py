"""A process end costs an event only when someone listens.

A generator that returns while its process has no callbacks leaves the
process processed at once and schedules nothing; a later join resumes at
once.  A failed process is always dispatched, so an unhandled failure still
stops the run.  A process may carry one failure event, its ``link``: a
crash that is not an :class:`Interrupt` fails the link at the crash instant
and defuses the process (docs/performance.md, "A process nobody waits on
ends without an event").  Each case runs on the calendar and heap backends
and under ``NeverQuiescent``, which queues every grant.
"""

import pytest

from repro.sim import HeapScheduler, Interrupt, Simulator
from repro.util.errors import SimulationError
from tests.sim.test_eager_grants import NeverQuiescent

SCHEDULERS = {"calendar": None, "heap": HeapScheduler, "never-quiescent": NeverQuiescent}


@pytest.fixture(params=list(SCHEDULERS))
def sim(request):
    scheduler = SCHEDULERS[request.param]
    return Simulator(scheduler=scheduler() if scheduler else None)


def ticker(sim, ticks, value=None):
    for _ in range(ticks):
        yield sim.timeout(1.0)
    return value


def crasher(sim, at, error):
    yield sim.timeout(at)
    raise error


def test_an_unheard_end_dispatches_no_event(sim):
    process = sim.process(ticker(sim, 3, "done"))
    sim.run()
    # The start and three timeouts; the return is no event.
    assert sim.events_dispatched == 4
    assert process.processed and process.ok and process.value == "done"
    assert not process.is_alive


def test_a_heard_end_is_still_an_event(sim):
    process = sim.process(ticker(sim, 3, "done"))
    seen = []
    process.callbacks.append(lambda event: seen.append((sim.now, event.value)))
    sim.run()
    assert sim.events_dispatched == 5
    assert seen == [(3.0, "done")]


def test_a_later_join_gets_the_value_at_once(sim):
    child = sim.process(ticker(sim, 1, 42))
    seen = []

    def joiner():
        yield sim.timeout(2.0)
        seen.append((sim.now, (yield child)))

    sim.process(joiner())
    sim.run()
    assert seen == [(2.0, 42)]
    # Two starts and two timeouts: neither end, nor the join, is an event.
    assert sim.events_dispatched == 4


def test_an_unlinked_crash_still_stops_the_run(sim):
    sim.process(crasher(sim, 1.0, ValueError("boom")))
    with pytest.raises(SimulationError, match="unhandled failure.*boom"):
        sim.run()
    assert sim.now == 1.0


def test_a_linked_crash_fails_the_link_at_the_crash_instant(sim):
    link = sim.event()
    error = ValueError("boom")
    process = sim.process(crasher(sim, 1.0, error))
    process.link = link
    seen = []

    def query():
        try:
            yield link
        except ValueError as caught:
            seen.append((sim.now, caught))

    sim.process(query())
    sim.run()  # defused: no unhandled failure
    assert seen == [(1.0, error)]
    assert process._defused and not process.ok and process.value is error


def test_a_second_linked_crash_leaves_the_first_error(sim):
    link = sim.event()
    first, second = ValueError("first"), ValueError("second")
    for at, error in ((1.0, first), (2.0, second)):
        sim.process(crasher(sim, at, error)).link = link
    link._defused = True  # nobody waits on it here
    sim.run()
    assert link.value is first


def test_an_interrupt_neither_fails_the_link_nor_defuses(sim):
    link = sim.event()
    victim = sim.process(ticker(sim, 5))
    victim.link = link

    def interrupter():
        yield sim.timeout(1.5)
        victim.interrupt("stop")

    sim.process(interrupter())
    with pytest.raises(SimulationError, match="unhandled failure.*Interrupt"):
        sim.run()
    assert isinstance(victim.value, Interrupt)
    assert not victim._defused and not link.triggered
