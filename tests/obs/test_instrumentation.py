"""Kernel hooks feed the instrumentation hub with the right observations."""

import pytest

from repro.obs import Instrumentation
from repro.obs.instrument import NULL_OBS
from repro.obs.tracer import NULL_TRACER
from repro.sim.core import Simulator
from repro.sim.events import Interrupt
from repro.sim.resources import Resource, Store
from tests.conftest import busiest_of


def _instrumented():
    obs = Instrumentation()
    sim = Simulator(obs=obs)
    return sim, obs


class TestDefaults:
    def test_uninstrumented_simulator_shares_null_obs(self):
        assert Simulator().obs is NULL_OBS
        assert Simulator().obs is Simulator().obs
        assert not NULL_OBS.enabled

    def test_bind_attaches_simulator(self):
        sim, obs = _instrumented()
        assert obs.sim is sim
        assert obs.now == 0.0


class TestKernelCounters:
    def test_steps_timeouts_and_processes_counted(self):
        sim, obs = _instrumented()

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.process(worker(), name="worker")
        sim.run()
        snap = obs.snapshot()
        assert snap.counter("sim.timeouts_created") == 2
        assert snap.counter("sim.processes_started") == 1
        assert snap.counter("sim.processes_finished") == 1
        assert snap.counter("sim.processes_failed") == 0
        assert snap.counter("sim.events_processed") >= 3  # init + 2 timeouts
        assert snap.now == 3.0

    def test_failed_process_counted(self):
        sim, obs = _instrumented()

        def broken():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        proc = sim.process(broken(), name="broken")
        proc.defuse()
        sim.run()
        assert obs.snapshot().counter("sim.processes_failed") == 1

    def test_interrupt_counted_and_traced(self):
        sim, obs = _instrumented()

        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                pass

        def killer(victim):
            yield sim.timeout(1.0)
            victim.interrupt("stop")

        victim = sim.process(sleeper(), name="sleeper")
        sim.process(killer(victim), name="killer")
        sim.run()
        assert obs.snapshot().counter("sim.interrupts") == 1
        instants = [r for r in obs.tracer if r.kind == "instant"]
        assert any(r.name == "interrupt" and r.track == "process:sleeper"
                   for r in instants)


class TestProcessSpans:
    def test_process_lifetime_recorded(self):
        sim, obs = _instrumented()

        def worker():
            yield sim.timeout(4.0)

        sim.process(worker(), name="worker")
        sim.run()
        begins = [r for r in obs.tracer
                  if r.kind == "span_begin" and r.track == "process:worker"]
        ends = [r for r in obs.tracer
                if r.kind == "span_end" and r.track == "process:worker"]
        assert len(begins) == len(ends) == 1
        assert begins[0].ident == ends[0].ident
        assert ends[0].ts - begins[0].ts == pytest.approx(4.0)


class TestResourceHooks:
    def test_busy_and_queue_series(self):
        sim, obs = _instrumented()
        device = Resource(sim, capacity=1, name="dev")

        def worker(hold):
            with device.request() as req:
                yield req
                yield sim.timeout(hold)

        sim.process(worker(2.0))
        sim.process(worker(3.0))  # waits until t=2, holds until t=5
        sim.run()
        assert obs.resource_busy_time("dev") == pytest.approx(5.0)
        assert obs.resource_occupancy("dev") == pytest.approx(5.0)
        snap = obs.snapshot()
        assert snap.counter("resource.acquires[dev]") == 2
        assert snap.counter("resource.waits[dev]") == 1
        queue = obs.metrics.series["resource.queue[dev]"]
        assert queue.maximum == 1
        busy = obs.metrics.series["resource.busy[dev]"]
        assert busy.maximum == 1  # capacity never exceeded

    def test_hold_spans_pair_up(self):
        sim, obs = _instrumented()
        device = Resource(sim, capacity=2, name="dev")

        def worker():
            with device.request() as req:
                yield req
                yield sim.timeout(1.0)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        holds = [r for r in obs.tracer if r.track == "resource:dev"]
        begins = {r.ident for r in holds if r.kind == "span_begin"}
        ends = {r.ident for r in holds if r.kind == "span_end"}
        assert len(begins) == 3
        assert begins == ends

    def test_withdrawn_request_counted(self):
        sim, obs = _instrumented()
        device = Resource(sim, capacity=1, name="dev")

        def holder():
            with device.request() as req:
                yield req
                yield sim.timeout(5.0)

        def impatient():
            req = device.request()
            yield sim.timeout(1.0)
            req.cancel()

        sim.process(holder())
        sim.process(impatient())
        sim.run()
        snap = obs.snapshot()
        assert snap.counter("resource.withdrawals[dev]") == 1
        assert snap.counter("resource.acquires[dev]") == 1

    def test_busiest_resource(self):
        sim, obs = _instrumented()
        fast = Resource(sim, name="coproc[0]")
        slow = Resource(sim, name="coproc[1]")
        other = Resource(sim, name="link[a]")

        def use(resource, hold):
            with resource.request() as req:
                yield req
                yield sim.timeout(hold)

        sim.process(use(fast, 1.0))
        sim.process(use(slow, 3.0))
        sim.process(use(other, 9.0))
        sim.run()
        assert busiest_of(obs, "coproc") == ("coproc[1]", pytest.approx(3.0))
        assert busiest_of(obs) == ("link[a]", pytest.approx(9.0))
        assert busiest_of(obs, "nic") == (None, 0.0)


class TestStoreHooks:
    def test_levels_tracked_over_time(self):
        sim, obs = _instrumented()
        box = Store(sim, capacity=10, name="inbox")

        def producer():
            for i in range(3):
                yield sim.timeout(1.0)
                yield box.put(i)

        def consumer():
            yield sim.timeout(10.0)
            for _ in range(3):
                yield box.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        level = obs.metrics.series["store.level[inbox]"]
        level.finalize(sim.now)
        assert level.maximum == 3
        assert level.current == 0
        samples = [r for r in obs.tracer if r.track == "store:inbox"]
        assert [r.args for r in samples[:3]] == [1, 2, 3]


class TestMetricsOnlyMode:
    def test_null_tracer_keeps_metrics(self):
        obs = Instrumentation(tracer=NULL_TRACER)
        sim = Simulator(obs=obs)
        device = Resource(sim, name="dev")

        def worker():
            with device.request() as req:
                yield req
                yield sim.timeout(2.0)

        sim.process(worker(), name="w")
        sim.run()
        assert len(obs.tracer) == 0
        assert obs.resource_busy_time("dev") == pytest.approx(2.0)
        assert obs.snapshot().counter("sim.processes_finished") == 1
