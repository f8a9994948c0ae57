"""Unit tests for the simulator scheduler."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import Simulator
from repro.sim.core import _RUN_GEN0_THRESHOLD
from repro.util.errors import SimulationError


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_peek_empty_is_infinite(self, sim):
        assert sim.peek() == float("inf")

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(5.0)
        sim.timeout(2.0)
        assert sim.peek() == pytest.approx(2.0)

    def test_step_empty_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.step()


class TestRun:
    def test_run_until_stops_the_clock(self, sim):
        ticks = []

        def ticker():
            while True:
                yield sim.timeout(1.0)
                ticks.append(sim.now)

        sim.process(ticker())
        sim.run(until=3.5)
        assert sim.now == pytest.approx(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_run_until_past_queue_drain_advances_clock(self, sim):
        # The queue drains at t=1.0, but run(until=10.0) must still leave
        # the clock at 10.0 — time passes even when nothing happens.
        sim.timeout(1.0)
        assert sim.run(until=10.0) == pytest.approx(10.0)
        assert sim.now == pytest.approx(10.0)

    def test_run_until_on_empty_queue_advances_clock(self, sim):
        assert sim.run(until=2.5) == pytest.approx(2.5)
        assert sim.now == pytest.approx(2.5)

    def test_run_until_in_the_past_raises(self, sim):
        sim.timeout(5.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_events_processed_in_time_order(self, sim):
        order = []
        for delay in (3.0, 1.0, 2.0):
            sim.process(self._at(sim, delay, order))
        sim.run()
        assert order == [1.0, 2.0, 3.0]

    @staticmethod
    def _at(sim, delay, order):
        def body():
            yield sim.timeout(delay)
            order.append(sim.now)

        return body()

    def test_same_time_events_keep_insertion_order(self, sim):
        order = []

        def body(tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(body(tag))
        sim.run()
        assert order == ["a", "b", "c"]


class TestRunProcess:
    def test_returns_the_process_value(self, sim):
        def body():
            yield sim.timeout(1.0)
            return {"answer": 42}

        assert sim.run_process(body()) == {"answer": 42}

    def test_reraises_the_process_exception(self, sim):
        def body():
            yield sim.timeout(1.0)
            raise LookupError("missing")

        with pytest.raises(LookupError, match="missing"):
            sim.run_process(body())

    def test_detects_deadlock(self, sim):
        def body():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(body())

    def test_determinism_across_instances(self):
        def workload(sim, log):
            def worker(tag, delay):
                yield sim.timeout(delay)
                log.append((sim.now, tag))

            for tag, delay in (("x", 2.0), ("y", 1.0), ("z", 2.0)):
                sim.process(worker(tag, delay))
            sim.run()

        log1, log2 = [], []
        workload(Simulator(), log1)
        workload(Simulator(), log2)
        assert log1 == log2


def _drains(sim):
    sim.timeout(1.0)


def _fails_unhandled(sim):
    sim.event().fail(LookupError("nobody handles this"))


def _calls_back(action):
    def arrange(sim):
        event = sim.event()
        event.callbacks.append(lambda _: action())
        event.succeed()

    return arrange


def _raise(exc_type):
    def action():
        raise exc_type("from a callback")

    return action


def _run_another():
    inner = Simulator()
    inner.timeout(1.0)
    inner.run()


class TestCollectorPolicy:
    """``run`` raises the collector's generation-0 threshold for the length
    of the drain, and hands the caller's thresholds back on every exit."""

    CALLER = (555, 7, 9)
    IN_RUN = (_RUN_GEN0_THRESHOLD,) + CALLER[1:]

    @pytest.fixture(autouse=True)
    def caller_policy(self):
        saved, enabled = gc.get_threshold(), gc.isenabled()
        gc.set_threshold(*self.CALLER)
        try:
            yield
        finally:
            gc.set_threshold(*saved)
            (gc.enable if enabled else gc.disable)()

    @staticmethod
    def _observe(sim, seen):
        """Record the collector policy from a callback at the current instant."""
        sim.timeout(0.0).callbacks.append(
            lambda _: seen.append((gc.get_threshold(), gc.isenabled()))
        )

    @pytest.mark.parametrize("scheduler", ["calendar", "heap"])
    @pytest.mark.parametrize("arrange, until, raises", [
        (_drains, None, None),
        (_drains, 0.5, None),
        (_fails_unhandled, None, SimulationError),
        (_calls_back(_raise(ValueError)), None, ValueError),
        (_calls_back(_raise(KeyboardInterrupt)), None, KeyboardInterrupt),
        (_calls_back(_run_another), None, None),
    ], ids=["drained", "until", "failed-event", "callback-raises", "interrupt", "nested"])
    def test_the_caller_policy_comes_back(self, scheduler, arrange, until, raises):
        sim = Simulator(scheduler=scheduler)
        seen = []
        self._observe(sim, seen)
        arrange(sim)
        self._observe(sim, seen)  # after a nested run returned
        if raises is None:
            sim.run(until=until)
            assert len(seen) == 2
        else:
            with pytest.raises(raises):
                sim.run(until=until)
            assert len(seen) == 1
        assert set(seen) == {(self.IN_RUN, True)}
        assert (gc.get_threshold(), gc.isenabled()) == (self.CALLER, True)

    def test_a_collector_switched_off_stays_off(self, sim):
        seen = []
        gc.set_threshold(0, 7, 9)
        self._observe(sim, seen)
        sim.run()
        assert gc.get_threshold() == (0, 7, 9)
        gc.set_threshold(*self.CALLER)
        gc.disable()
        self._observe(sim, seen)
        sim.run()
        assert seen == [((0, 7, 9), True), (self.IN_RUN, False)]
        assert (gc.get_threshold(), gc.isenabled()) == (self.CALLER, False)


#: 40 smoke sessions (mqs_scale's 128 one-buffer queries on an 8x8x8 torus)
#: in one process, no explicit collection: tracked objects after each.
LONG_LIVED_SCRIPT = """
import gc, json
from repro.core.experiments.scale import scale_config, scale_stream_query
from repro.core.multiquery import MultiQuerySession
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import shared_template
from repro.scsql.plan import compile_plan

settings = ExecutionSettings(mpi_buffer_bytes=10_000, double_buffering=True)
plan = compile_plan(scale_stream_query(10_000, 1), settings=settings)
template = shared_template(scale_config((8, 8, 8)))
full = gc.get_stats()[2]["collections"]
tracked = []
for seed in range(40):
    session = MultiQuerySession(template.fork(seed=seed), settings=settings)
    for _ in range(128):
        session.submit(plan, payload_bytes=10_000)
    session.run()
    session.teardown()
    del session
    tracked.append(len(gc.get_objects()))
print(json.dumps({"tracked": tracked, "full": gc.get_stats()[2]["collections"] - full}))
"""


def test_a_long_lived_process_collects_its_dead_sessions():
    """A policy scoped to ``run`` must not defer collection past it.

    ``gc.freeze()`` around the drain looks like the same gain, but
    ``gc.unfreeze()`` moves the session into the oldest generation without
    counting it toward the full-collection trigger: no full collection
    comes, and every dead session's cycles stay (≈ 2 600 tracked objects
    per session here).  A fresh interpreter runs the sessions, since when a
    full collection comes depends on the size of the long-lived heap.
    """
    src = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", LONG_LIVED_SCRIPT],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    result = json.loads(out)
    assert result["full"] >= 1
    tracked = result["tracked"]
    assert tracked[-1] - tracked[0] < 20_000, tracked
