"""Unit tests for the event primitives of the simulation kernel."""

import pytest

from repro.sim import Interrupt, Store, wake
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
        """A process that yields a processed event is resumed in the same
        step, with no event dispatched for it."""
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []

        def late():
            seen.append((yield event))

        sim.process(late())
        sim.step()  # the process's start; its end is unheard, so no event
        assert seen == ["x"] and sim.peek() == float("inf")


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
        sim.run()
        assert condition.value == {}

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

    def test_the_losers_hold_nothing_once_it_fires(self, sim):
        """A fired condition is off every sub-event that did not fire: a
        losing timer stays queued with no callback, so it pins neither the
        condition nor the other sub-events."""
        store = Store(sim)
        item, timer, other = store.get(), sim.timeout(5.0), sim.event()
        condition = sim.any_of([item, timer, other])
        assert all(sub.callbacks == [condition._check] for sub in (item, timer, other))

        def putter():
            yield sim.timeout(1.0)
            yield store.put("x")

        sim.process(putter())
        sim.run(until=2.0)
        assert condition.processed and condition.value == {item: "x"}
        assert timer.callbacks == [] and other.callbacks == []
        sim.run()
        assert sim.now == 5.0  # the losing timer still dispatches, holding nothing

    def test_value_is_every_occurred_success_in_order(self, sim):
        early, failed = sim.timeout(0.0, value="early"), sim.event()
        failed.fail(KeyError("handled"))
        failed._defused = True
        sim.run()
        late, pending = sim.timeout(1.0, value="late"), sim.event()
        condition = sim.any_of([late, early, failed, pending])
        assert condition.triggered
        assert list(condition.value.items()) == [(early, "early")]
        assert late.callbacks == [] and pending.callbacks == []  # registered, then left
        duplicated = sim.any_of([late, late])
        sim.run()
        assert duplicated.value == {late: "late"}

    def test_an_already_failed_sub_event_fails_it_at_once(self, sim):
        bad = sim.event()
        bad.fail(RuntimeError("dead"))
        bad._defused = True
        sim.run()
        timer = sim.timeout(1.0)
        condition = sim.any_of([timer, bad])
        assert condition.triggered and not condition.ok
        assert isinstance(condition.value, RuntimeError)
        assert timer.callbacks == []
        condition._defused = True
        sim.run()

    def test_a_processed_sub_event_triggers_it_at_once(self, sim):
        """A get served synchronously at a quiescent instant comes back
        processed; the condition over it fires before its timer is armed
        on it, and the timer holds nothing."""
        store = Store(sim)
        seen = {}

        def body():
            yield store.put("x")
            item = store.get()
            timer = sim.timeout(0.0)
            assert item.processed
            condition = sim.any_of([item, timer])
            assert condition.triggered and timer.callbacks == []
            seen["value"] = yield condition
            seen["item"] = item

        sim.process(body())
        sim.run()
        assert seen["value"] == {seen["item"]: "x"}

    def test_a_loser_that_fails_later_is_still_unhandled(self, sim):
        bad = sim.event()

        def waiter():
            yield sim.any_of([sim.timeout(1.0), bad])
            yield sim.timeout(1.0)
            bad.fail(RuntimeError("late"))

        sim.process(waiter())
        with pytest.raises(SimulationError, match="unhandled failure"):
            sim.run()
        assert sim.now == 2.0


class TestWake:
    """``wake``: a timer cuts a process's wait on a pending event short,
    without a condition event per wait."""

    def test_a_parked_process_resumes_with_the_value_and_the_get_stays_queued(self, sim):
        store = Store(sim, name="feed")
        get = store.get()
        seen = []

        def body():
            for _ in range(2):  # woken, then collected by yielding it again
                value = yield get
                seen.append((sim.now, value))

        sim.process(body())
        sim.run(until=1.0)
        assert wake(get, "woken")
        assert get.callbacks == [] and store._getters == [get]
        sim.run(until=2.0)
        assert seen == [(1.0, "woken")]
        store.put("item")
        sim.run()
        assert seen == [(1.0, "woken"), (2.0, "item")]

    def test_it_runs_after_what_is_already_queued_at_its_instant(self, sim):
        """One normal-rank event, pushed now: where a condition over the
        get that fired now would resume the process."""
        get = Store(sim).get()
        order = []

        def parked():
            order.append((yield get))

        def other():
            order.append("queued first")
            yield sim.timeout(0.0)

        sim.process(parked())
        sim.run()
        timer = sim.timeout(1.0)
        timer.callbacks.append(lambda _: sim.process(other()))
        timer.callbacks.append(lambda _: wake(get, "woken"))
        sim.run()
        assert order == ["queued first", "woken"]

    def test_it_does_nothing_unless_a_process_is_parked_on_the_event(self, sim):
        get, timer = Store(sim).get(), sim.timeout(5.0)

        def body():
            yield timer
            return "done"

        process = sim.process(body())
        sim.run(until=1.0)
        assert not wake(get)  # nobody waits on it
        sim.run()
        assert not wake(timer)  # processed, its waiter gone on
        assert process.value == "done"

    def test_a_bare_callback_is_not_a_process(self, sim):
        event = sim.event()
        event.callbacks.append(lambda e: None)
        assert not wake(event)
        assert len(event.callbacks) == 1

    def test_an_interrupt_before_the_wake_dispatches_detaches_the_process(self, sim):
        get = Store(sim).get()
        seen = []

        def body():
            try:
                yield get
            except Interrupt as interrupt:
                seen.append(interrupt.cause)
            seen.append((yield sim.timeout(1.0, value="after")))

        process = sim.process(body())
        sim.run()
        assert wake(get, "woken")
        process.interrupt("stop")  # urgent: runs before the wake event
        sim.run()
        assert seen == ["stop", "after"]
        assert get.callbacks == []

    def test_an_item_that_arrives_before_the_wake_dispatches_waits_in_the_get(self, sim):
        store = Store(sim)
        get = store.get()
        seen = []

        def body():
            seen.append((yield get))
            seen.append(get.triggered)
            seen.append((yield get))

        sim.process(body())
        sim.run()
        assert wake(get, "woken")
        store.put("item")  # the get triggers behind the wake event
        sim.run()
        assert seen == ["woken", True, "item"]


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
