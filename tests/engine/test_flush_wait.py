"""The sender's flush wait: what it costs, and what it must not move.

``SenderDriver._next_object`` waits on the bare ``source.get()``.  A
partial buffer arms one flush timer, at its first wait; if the timer fires
while the driver is parked on a get, :func:`repro.sim.events.wake` resumes
the driver through one normal-rank event and leaves the get queued, which
is what a condition over the get and a per-wait timer (``AnyOf``) did when
it fired.  In the deck's ``linear-road`` query the 5 ms timer never wins:
the query ends first.

Three pins:

* **Events per drain.**  The drain of ``tests/engine/test_object_calls.py``
  (``linear-road``, data seed 0, env seed 1, hooks off) also counts the
  events it dispatches.  While each wait was ``AnyOf((get,
  Timeout(remaining)))`` a won get cost three dispatches (the get, the
  condition, the losing timer) and the drain dispatched 29 879 events at
  51.72 ``repro.sim`` frames per object; with the bare get it dispatches
  24 153 at 44.77 (CPython 3.11).  Before that, ``AnyOf`` itself went from
  65.01 to 53.01 frames per wait.  That module's one exactness test checks
  the events with the frames.
* **The timer wins.**  At flush intervals short enough for the timer to
  fire, the three deck queries must give what the condition wait gave:
  the float duration, the result and the
  :func:`~repro.bench.baseline.physics_digest` of a flows-level rerun,
  with jitter on and at magnitude 0.  Those are physics: the durations
  and results were recorded at commit ``008b726``, the digests at
  ``ddb06bd``.  The events column is bookkeeping.  It was re-recorded when
  the wait became the bare get: a get that wins resumes the driver without
  a condition event, and the timer is armed once per partial buffer
  instead of once per wait, so every row but ``signals`` (which never
  waits with bytes pending) dispatches fewer events.
* **Edge cases of the wake.**  A small pipe (one sender on ``bg:1`` to
  a receiver on ``bg:0``, 1 000-byte buffers, a 100 us flush interval)
  drives the paths where a timer and a wait can meet badly: a timer gone
  stale, a timer that fires while the driver is in ``_emit``, the end of
  the stream, an interrupt while parked or while woken, and a stop.  Their
  digests are the condition wait's, recorded at ``ddb06bd``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import pytest

from repro.bench.baseline import physics_digest
from repro.bench.query_stream import DEFAULT_SCALE, build_query, registered
from repro.coordinator.deployer import Deployer
from repro.engine.context import ExecutionContext
from repro.engine.drivers import ReceiverDriver, SenderDriver
from repro.engine.inbox import Inbox
from repro.engine.objects import END_OF_STREAM, SyntheticArray
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.net.channels import MpiChannel
from repro.net.params import NetworkParams
from repro.obs.instrument import OBSERVE_FLOWS, OBSERVE_NONE, instrumentation_for
from repro.scsql.plan import compile_plan
from repro.sim import Interrupt, Store, scheduler_override
from repro.sim.introspect import wait_edges
from repro.sim.scheduler import ShuffleScheduler
from tests.engine.test_object_calls import MAX_SIM_FRAMES_PER_OBJECT, count_frames

#: Events one drain of the linear-road query dispatches: 29 879 with a
#: condition per wait, 24 153 with the bare get.
MAX_EVENTS = 24_200


def test_a_flush_wait_pays_only_for_what_fires():
    counts = count_frames()
    assert counts["objects"] == 2880
    assert counts["events"] <= MAX_EVENTS, counts
    assert counts["sim"] / counts["objects"] <= MAX_SIM_FRAMES_PER_OBJECT, counts


#: ``(kind, flush_interval, env seed, jitter)`` -> ``(repr(duration), result,
#: physics digest[:16], events_dispatched)`` (data seed 0).
TIMER_WINS = {
    ('grep', 5e-05, 1, 0.0): ('0.0076592698927013024', 144, '7dfc8ddc38943f8f', 2375),
    ('grep', 5e-05, 1, 0.01): ('0.0072038373088030355', 144, 'cd756a6c6d60a891', 2313),
    ('grep', 5e-05, 2, 0.0): ('0.0076592698927013024', 144, '7dfc8ddc38943f8f', 2375),
    ('grep', 5e-05, 2, 0.01): ('0.00724187188743984', 144, '16ef977c80d738fa', 2314),
    ('grep', 0.0001, 1, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.0001, 1, 0.01): ('0.007046230943023731', 144, '893f342caeaa8ae8', 2321),
    ('grep', 0.0001, 2, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.0001, 2, 0.01): ('0.007076922722868936', 144, '15de839fb1b5089f', 2322),
    ('grep', 0.0003, 1, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.0003, 1, 0.01): ('0.007046230943023731', 144, '893f342caeaa8ae8', 2321),
    ('grep', 0.0003, 2, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.0003, 2, 0.01): ('0.007076922722868936', 144, '15de839fb1b5089f', 2322),
    ('grep', 0.001, 1, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.001, 1, 0.01): ('0.007046230943023731', 144, '893f342caeaa8ae8', 2321),
    ('grep', 0.001, 2, 0.0): ('0.0069884184641298705', 144, '724a22948a532c7c', 2370),
    ('grep', 0.001, 2, 0.01): ('0.007076922722868936', 144, '15de839fb1b5089f', 2322),
    ('linear-road', 5e-05, 1, 0.0): ('0.0027602104956332934', 18, 'e14c9378536507f2', 27525),
    ('linear-road', 5e-05, 1, 0.01): ('0.0027627528064339203', 18, '118dde922ab75b3c', 24491),
    ('linear-road', 5e-05, 2, 0.0): ('0.0027602104956332934', 18, 'e14c9378536507f2', 27525),
    ('linear-road', 5e-05, 2, 0.01): ('0.0027618083372966283', 18, '97e035063abb15f1', 24490),
    ('linear-road', 0.0001, 1, 0.0): ('0.0028353196221483057', 18, '08b39eb9ee19e391', 27277),
    ('linear-road', 0.0001, 1, 0.01): ('0.0028766110708521833', 18, '99acb1a49a70e58e', 24321),
    ('linear-road', 0.0001, 2, 0.0): ('0.0028353196221483057', 18, '08b39eb9ee19e391', 27277),
    ('linear-road', 0.0001, 2, 0.01): ('0.0028752267649542083', 18, 'acc12ed52a217656', 24319),
    ('linear-road', 0.0003, 1, 0.0): ('0.0032418061538274667', 18, '9eb7295568bd523b', 27057),
    ('linear-road', 0.0003, 1, 0.01): ('0.0032569156106556875', 18, '1bc42a1af5f1b60f', 24165),
    ('linear-road', 0.0003, 2, 0.0): ('0.0032418061538274667', 18, '9eb7295568bd523b', 27057),
    ('linear-road', 0.0003, 2, 0.01): ('0.0033115781585751018', 18, '8b2673e418097953', 24163),
    ('linear-road', 0.001, 1, 0.0): ('0.0032418061538274667', 18, 'b898481473f8508b', 27046),
    ('linear-road', 0.001, 1, 0.01): ('0.003256931608044017', 18, 'e31a23f7455a37fd', 24153),
    ('linear-road', 0.001, 2, 0.0): ('0.0032418061538274667', 18, 'b898481473f8508b', 27046),
    ('linear-road', 0.001, 2, 0.01): ('0.0033305428482254137', 18, 'cc96d9d3c50455c2', 24151),
    ('signals', 5e-05, 1, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 5e-05, 1, 0.01): ('0.009352234803156478', 8, '18d210e9f9e4f4ad', 1761),
    ('signals', 5e-05, 2, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 5e-05, 2, 0.01): ('0.009336588389434937', 8, 'b656ea58fec87e3e', 1767),
    ('signals', 0.0001, 1, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.0001, 1, 0.01): ('0.009352234803156478', 8, '18d210e9f9e4f4ad', 1761),
    ('signals', 0.0001, 2, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.0001, 2, 0.01): ('0.009336588389434937', 8, 'b656ea58fec87e3e', 1767),
    ('signals', 0.0003, 1, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.0003, 1, 0.01): ('0.009352234803156478', 8, '18d210e9f9e4f4ad', 1761),
    ('signals', 0.0003, 2, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.0003, 2, 0.01): ('0.009336588389434937', 8, 'b656ea58fec87e3e', 1767),
    ('signals', 0.001, 1, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.001, 1, 0.01): ('0.009352234803156478', 8, '18d210e9f9e4f4ad', 1761),
    ('signals', 0.001, 2, 0.0): ('0.009334573451184052', 8, '54d14d2c4c3deb90', 1817),
    ('signals', 0.001, 2, 0.01): ('0.009336588389434937', 8, 'b656ea58fec87e3e', 1767),
}


def run_deck_query(case, observe: str = OBSERVE_NONE):
    """``(report, env, hub)`` of one deck query under ``case``'s settings."""
    kind, interval, seed, jitter = case
    query = build_query(kind, 0, DEFAULT_SCALE, 0)
    settings = ExecutionSettings(flush_interval=interval)
    config = EnvironmentConfig(params=NetworkParams(jitter=jitter))
    obs = instrumentation_for(observe)
    with registered([query]):
        env = shared_template(config).fork(seed=seed, obs=obs)
        deployer = Deployer(env)
        plan = compile_plan(query.query, settings=settings)
        deployment = deployer.deploy(deployer.place(plan, settings=settings))
        report = deployment.run()
        deployment.teardown()
    return report, env, obs


@pytest.mark.parametrize("case", sorted(TIMER_WINS), ids=repr)
def test_a_winning_flush_timer_moves_nothing(case):
    report, env, _ = run_deck_query(case)
    rerun, _, obs = run_deck_query(case, OBSERVE_FLOWS)
    assert rerun.duration == report.duration and rerun.result == report.result
    digest = physics_digest([(obs.flows.completed, rerun.result)])
    assert (
        repr(report.duration), *report.result, digest[:16], env.sim.events_dispatched
    ) == TIMER_WINS[case]


def test_the_table_reaches_the_winning_timer():
    """At 5 ms the timer never wins; at the shortest intervals it does, so
    the query's duration moves with the interval."""
    for kind in ("linear-road", "grep"):
        durations = {TIMER_WINS[(kind, interval, 1, 0.01)][0] for interval in (5e-5, 1e-3)}
        assert len(durations) == 2, kind


@pytest.mark.parametrize("chaos_seed", [0, 1, 2])
def test_the_deck_gives_its_references_under_shuffled_ties(chaos_seed):
    """Same-instant events in any order: a flush that depended on the order
    of a wake and a get within one instant would change a result."""
    for kind in ("grep", "linear-road", "signals"):
        query = build_query(kind, 0, DEFAULT_SCALE, 0)
        for interval in (5e-5, 5e-3):
            settings = ExecutionSettings(flush_interval=interval)
            with registered([query]), scheduler_override(
                lambda: ShuffleScheduler(seed=chaos_seed)
            ):
                deployer = Deployer(shared_template(EnvironmentConfig()).fork(seed=1))
                plan = compile_plan(query.query, settings=settings)
                report = deployer.run(plan, settings=settings)
                deployer.teardown()
            assert report.result == [query.expected_result], (kind, interval)


# ----------------------------------------------------------------------
# Edge cases of the wake, on one sender-receiver pipe
# ----------------------------------------------------------------------
US = 1e-6


class Pipe:
    """One sender on ``bg:1`` to a receiver on ``bg:0`` over 1 000-byte
    buffers with a 100 us flush interval, flows hooks on.  ``arrivals``
    are ``(time in us, nbytes)`` pairs fed to the sender in order; an
    ``nbytes`` of ``None`` ends the stream."""

    def __init__(self, arrivals: Sequence[Tuple[float, Optional[int]]]):
        self.obs = instrumentation_for(OBSERVE_FLOWS)
        env = shared_template(EnvironmentConfig()).fork(seed=1, obs=self.obs)
        self.sim = sim = env.sim
        settings = ExecutionSettings(mpi_buffer_bytes=1000, flush_interval=100 * US)
        inbox = Inbox(sim, slots=settings.driver_slots, name="pipe")
        channel = MpiChannel(sim, env.node("bg", 1), env.node("bg", 0), inbox, env.torus)
        self.feed, output = Store(sim, name="feed"), Store(sim)
        self.sender = SenderDriver(
            ExecutionContext(env, env.node("bg", 1), settings), self.feed, channel, "s"
        )
        receiver = ReceiverDriver(
            ExecutionContext(env, env.node("bg", 0), settings), inbox, output, "s"
        )

        def producer():
            for at, nbytes in arrivals:
                yield sim.timeout(at * US - sim.now)
                yield self.feed.put(
                    END_OF_STREAM if nbytes is None else SyntheticArray(nbytes=nbytes)
                )

        def consumer():
            sizes = []
            while True:
                obj = yield output.get()
                if obj is END_OF_STREAM:
                    return sizes
                sizes.append(obj.nbytes)

        sim.process(producer(), name="producer")
        self.sender.process = sim.process(self.sender.run(), name="sender")
        sim.process(receiver.run(), name="receiver")
        self.consumer = sim.process(consumer(), name="consumer")

    def births(self) -> List[Tuple[float, int]]:
        """``(birth in us, nbytes)`` of every data buffer, in send order."""
        records = sorted(self.obs.flows.completed, key=lambda record: record.flow_id)
        return [(round(r.birth / US, 3), r.nbytes) for r in records if not r.eos]

    def digest(self) -> str:
        delivered = self.consumer.value if self.consumer.triggered else []
        return physics_digest([(self.obs.flows.completed, delivered)])[:16]

    def interrupt_sender(self, cause: str) -> None:
        """What a stop or a teardown does to the sender (``RunningProcess``)."""
        self.sender.process.interrupt(cause)
        self.sender.process.defuse()


def run_pipe(arrivals, until: Optional[float] = None) -> Pipe:
    """A :class:`Pipe` run to the end, or to ``until`` us."""
    pipe = Pipe(arrivals)
    pipe.sim.run(until=None if until is None else until * US)
    return pipe


def test_a_timer_that_wins_flushes_the_partial_buffer_at_its_deadline():
    pipe = run_pipe([(0, 100), (1000, 100), (1500, None)])
    assert pipe.births() == [(100.0, 100), (1100.0, 100)]
    assert pipe.consumer.value == [100, 100]
    assert pipe.digest() == "4583e5f3f9d90517"


def test_a_stale_timer_flushes_nothing():
    """Ten objects fill the first buffer before its timer fires at 100 us;
    the object at 95 us starts the next buffer, whose own timer flushes it
    at 195 us."""
    arrivals = [(5 * i, 100) for i in range(10)] + [(95, 100), (1000, None)]
    pipe = run_pipe(arrivals)
    assert pipe.births() == [(45.0, 1000), (195.0, 100)]
    assert pipe.digest() == "686f04d61ae3b056"


def test_a_timer_that_fires_inside_emit_flushes_at_the_next_wait():
    """A 20 000-byte object at 50 us keeps the driver in ``_emit`` across
    the 100 us deadline; the 100-byte tail goes out when it next waits."""
    pipe = run_pipe([(0, 100), (50, 20_000), (1000, None)])
    births = pipe.births()
    assert len(births) == 21 and births[0][0] < 100.0 < births[-2][0]
    assert births[-1] == (394.388, 100)
    assert pipe.consumer.value == [100, 20_000]
    assert pipe.digest() == "bf6a44762f2d1466"


def test_the_end_of_stream_while_parked_flushes_the_tail_and_the_timer_is_harmless():
    pipe = run_pipe([(0, 100), (50, None)])
    assert pipe.births() == [(50.0, 100)]
    assert pipe.sim.now == 100 * US  # the timer still dispatched, waking nothing
    assert pipe.consumer.value == [100]
    assert pipe.digest() == "19a0a1c529766f93"


def test_a_parked_sender_reads_as_a_store_get():
    pipe = run_pipe([(0, 100)], until=50)
    (edge,) = wait_edges([pipe.sender.process], stores=[pipe.feed])
    assert edge.kind == "store-get"
    assert "'feed'" in edge.detail


def test_an_interrupt_while_parked_leaves_the_timer_nothing_to_wake():
    pipe = run_pipe([(0, 100)], until=50)
    pipe.interrupt_sender("query stopped")
    pipe.sim.run()
    assert pipe.sim.now == 100 * US
    assert isinstance(pipe.sender.process.value, Interrupt)
    assert pipe.births() == []
    assert pipe.feed.pending_gets == 1  # the get the sender left stays queued


def test_an_interrupt_between_the_wake_and_the_resume_wins():
    """The timer fires and wakes the sender; a teardown in the same
    dispatch interrupts it before the wake event runs."""
    pipe = run_pipe([(0, 100)], until=50)
    pipe.sender._flush_timer.callbacks.append(
        lambda _: pipe.interrupt_sender("teardown")
    )
    pipe.sim.run()
    assert isinstance(pipe.sender.process.value, Interrupt)
    assert pipe.births() == []


#: A continuous query: one count per five arrays, far below a buffer's worth.
CONTINUOUS = """
select extract(b) from sp a, sp b
where b=sp(winagg(extract(a), 'count', 5, 5), 'bg', 0)
and a=sp(gen_array(50000,-1), 'bg', 1);
"""
#: Its physics digest[:16] when stopped at 20 ms (data seed 0, env seed 1).
STOPPED = "df784eedf8caa4bd"


def test_a_stop_while_the_sender_is_parked_keeps_the_partial_result():
    obs = instrumentation_for(OBSERVE_FLOWS)
    deployer = Deployer(shared_template(EnvironmentConfig()).fork(seed=1, obs=obs))
    deployment = deployer.deploy(deployer.place(compile_plan(CONTINUOUS)))
    report = deployment.run(stop_after=0.02)
    deployment.teardown()
    assert report.stopped and report.result == [5, 5, 5, 5]
    assert physics_digest([(obs.flows.completed, report.result)])[:16] == STOPPED
