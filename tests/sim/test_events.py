"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.sim import Interrupt
from repro.util.errors import SimulationError


class TestEventLifecycle:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_none_is_a_value(self, sim):
        event = sim.event()
        event.succeed()
        assert event.triggered
        assert event.value is None

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("nope"))

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        event._defused = True
        sim.run()
        assert not event.ok
        assert event.value is error

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event._add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        sim.timeout(2.5)
        sim.run()
        assert sim.now == pytest.approx(2.5)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_timeout_value(self, sim):
        result = {}

        def proc():
            result["v"] = yield sim.timeout(1.0, value="hello")

        sim.process(proc())
        sim.run()
        assert result["v"] == "hello"

    def test_zero_delay_is_fine(self, sim):
        timeout = sim.timeout(0.0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0.0


class TestUnhandledFailure:
    def test_unhandled_failure_crashes_simulation(self, sim):
        event = sim.event()
        event.fail(ValueError("lost"))
        with pytest.raises(SimulationError, match="unhandled failure"):
            sim.run()

    def test_handled_failure_is_fine(self, sim):
        event = sim.event()

        def waiter():
            try:
                yield event
            except ValueError:
                return "caught"

        proc = sim.process(waiter())
        event.fail(ValueError("lost"))
        sim.run()
        assert proc.value == "caught"


class TestConditions:
    def test_any_of_triggers_on_first(self, sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        result = {}

        def waiter():
            result["v"] = yield sim.any_of([t1, t2])

        sim.process(waiter())
        sim.run()
        assert t1 in result["v"]
        assert t2 not in result["v"]

    def test_empty_any_of_triggers_immediately(self, sim):
        condition = sim.any_of([])
        assert condition.triggered

    def test_any_of_fails_fast(self, sim):
        bad = sim.event()

        def failer():
            yield sim.timeout(1.0)
            bad.fail(RuntimeError("dead"))

        def waiter():
            try:
                yield sim.any_of([bad, sim.timeout(10.0)])
            except RuntimeError:
                return sim.now

        sim.process(failer())
        proc = sim.process(waiter())
        sim.run()
        assert proc.value == pytest.approx(1.0)


class TestProcess:
    def test_join_returns_value(self, sim):
        def inner():
            yield sim.timeout(1.0)
            return 99

        def outer():
            value = yield sim.process(inner())
            return value + 1

        proc = sim.process(outer())
        sim.run()
        assert proc.value == 100

    def test_process_failure_propagates_to_joiner(self, sim):
        def inner():
            yield sim.timeout(1.0)
            raise KeyError("gone")

        def outer():
            try:
                yield sim.process(inner())
            except KeyError:
                return "handled"

        proc = sim.process(outer())
        sim.run()
        assert proc.value == "handled"

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="non-event"):
            sim.run()

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_interrupt_delivers_cause(self, sim):
        caught = {}

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                caught["cause"] = interrupt.cause
                caught["at"] = sim.now

        target = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(3.0)
            target.interrupt("enough")

        sim.process(interrupter())
        sim.run()
        assert caught == {"cause": "enough", "at": 3.0}

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            return "done"
            yield  # pragma: no cover

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_is_alive(self, sim):
        def body():
            yield sim.timeout(1.0)

        proc = sim.process(body())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_joining_thousands_of_finished_processes_in_a_row(self, sim):
        # Every child is finished and processed by the time the parent joins
        # it, so each join is delivered at once; that used to recurse once
        # per join and die with RecursionError near a thousand.
        def child(k):
            yield sim.timeout(1.0)
            return k

        def parent():
            kids = [sim.process(child(k)) for k in range(3000)]
            yield sim.timeout(2.0)
            total = 0
            for kid in kids:
                total += yield kid
            return total, sim.now

        proc = sim.process(parent())
        sim.run()
        assert proc.value == (sum(range(3000)), 2.0)

    def test_processed_events_are_delivered_in_yield_order(self, sim):
        # The immediate-delivery loop keeps the dispatch order of the
        # recursive form: values and failures arrive in the order yielded.
        done = sim.event().succeed("a")
        failed = sim.event().fail(KeyError("b"))
        failed._defused = True
        sim.run()
        seen = []

        def body():
            seen.append((yield done))
            try:
                yield failed
            except KeyError as error:
                seen.append(error.args[0])
            seen.append((yield done))
            return len(seen)

        proc = sim.process(body())
        sim.run()
        assert seen == ["a", "b", "a"] and proc.value == 3
