"""What a query costs before its first and after its last buffer.

A one-buffer query is all fixed cost (docs/performance.md, "fixed cost of a
query").  Its token pools — inbox slots, send buffers, the torus stream
window — are born stocked (``TokenPool(..., stock=n)``), so building a
query schedules nothing, and the 128-query session of the ledger's
``mqs_scale`` smoke is pinned: events per query may only fall, processes
per query stay what they were, and a kernel store costs what it holds
(docs/performance.md, "A store costs what it holds").
"""

import collections
import gc

import pytest

from repro.core.experiments.scale import scale_config, scale_stream_query
from repro.core.multiquery import MultiQuerySession
from repro.engine.context import ExecutionContext
from repro.engine.drivers import SenderDriver
from repro.engine.inbox import Inbox
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import shared_template
from repro.net.channels import MpiChannel
from repro.obs.instrument import instrumentation_for
from repro.scsql.plan import compile_plan
from repro.sim import Resource, Simulator, Store, TokenPool

SESSION_QUERIES = 128
SETTINGS = ExecutionSettings(mpi_buffer_bytes=10_000, double_buffering=True)


def run_session(observe="none", after_run=None, queries=SESSION_QUERIES):
    """The mqs_scale smoke: 128 one-buffer queries on an 8x8x8 torus;
    ``after_run(env)`` looks at the session between ``run`` and teardown."""
    env = shared_template(scale_config((8, 8, 8))).fork(
        seed=0, obs=instrumentation_for(observe)
    )
    plan = compile_plan(scale_stream_query(10_000, 1), settings=SETTINGS)
    session = MultiQuerySession(env, settings=SETTINGS)
    for index in range(queries):
        session.submit(plan, payload_bytes=10_000, label=f"s{index}")
    assert env.sim.peek() == float("inf")  # the queries built, nothing scheduled
    result = session.run()
    if after_run is not None:
        after_run(env)
    session.teardown()
    assert all(outcome.report.result == [1] for outcome in result.outcomes)
    return session, result


class TestSessionPin:
    def test_events_per_query_of_the_smoke_session(self):
        session, _ = run_session()
        env = session.env
        # 96.23 with token pools primed by put(None); 86.23 born stocked.
        assert env.sim.events_dispatched / SESSION_QUERIES <= 87

    def test_processes_per_query_did_not_move(self):
        session, _ = run_session("metrics")
        counters = session.env.obs.snapshot().counters
        assert counters["sim.processes_started"] == 14 * SESSION_QUERIES
        assert counters["sim.processes_finished"] == 14 * SESSION_QUERIES

    def test_no_kernel_store_or_resource_holds_a_deque(self):
        """Per query: 10 item stores (four operator ``.out``, two ``.feed``,
        two ``.outbox`` and two inbox ``.items``) and 4 token pools (two
        inbox slot pools, two send-buffer pools); the torus windows are
        freed with their streams.  Before pools were counters and queues
        lists, all 14 were deque-backed."""
        seen = {}

        def census(env):
            gc.collect()
            kernel = [
                o for o in gc.get_objects()
                if isinstance(o, (Store, Resource)) and o.sim is env.sim
            ]
            seen["types"] = collections.Counter(type(o) for o in kernel)
            seen["deques"] = [
                o for o in kernel
                if any(isinstance(r, collections.deque) for r in gc.get_referents(o))
            ]

        run_session(after_run=census)
        assert seen["deques"] == []
        assert seen["types"][Store] == 10 * SESSION_QUERIES
        assert seen["types"][TokenPool] == 4 * SESSION_QUERIES


class TestNoCyclicGarbage:
    @pytest.mark.parametrize("queries", [16, 128])
    def test_a_session_leaves_none(self, queries):
        """Submit, run and teardown of a live session leave the collector
        nothing to free, at any session size.  A granted request whose value
        was itself (8 per query) and the structure check's recursive closure
        (10 objects per query) once left 18 objects per query."""
        gc.collect()
        gc.disable()
        try:
            session, _ = run_session(queries=queries)  # the session stays live
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed == 0

    def test_a_dead_session_leaves_only_the_environments_cycles(self):
        """Dropping a torn-down session leaves the collector the cycles of
        the environment it ran on, and nothing per query wait.  Those are
        each capacity-1 ``Resource`` (512 at 8x8x8: the node CPUs and
        co-processors) with the shared grant token that points back at it,
        their ``_users``/``_waiting`` lists, and the simulator with its
        ``_done`` event.  They are not fixed here.  Each query's ``_drive``
        wait was a cycle too, 7 objects a query (2 566 in all), while a
        fired ``AnyOf`` stayed on its ``failure`` event's callbacks."""
        gc.collect()
        gc.disable()
        try:
            session, result = run_session()
            del session, result
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed <= 1670


class TestPoolsAreBornStocked:
    def test_an_inbox_schedules_nothing(self):
        for slots in (1, 2):
            sim = Simulator()
            inbox = Inbox(sim, slots=slots, name="in")
            assert sim.peek() == float("inf")
            assert inbox.kernel_stores()[0].size == slots
            assert inbox.kernel_stores()[0].pending_gets == 0

    def test_a_sender_driver_owns_its_send_buffers_at_once(self, env):
        for double_buffering, slots in ((False, 1), (True, 2)):
            settings = ExecutionSettings(double_buffering=double_buffering)
            ctx = ExecutionContext(env, env.node("bg", 1), settings)
            inbox = Inbox(env.sim, slots=slots, name="in")
            channel = MpiChannel(
                env.sim, env.node("bg", 1), env.node("bg", 0), inbox, env.torus
            )
            sender = SenderDriver(ctx, Store(env.sim), channel, "s")
            assert sender._tokens.size == slots
            assert env.sim.peek() == float("inf")

    def test_the_level_series_of_a_pool_still_starts_from_its_rise(self):
        obs = instrumentation_for("metrics")
        sim = Simulator(obs=obs)
        Inbox(sim, slots=2, name="in")
        level = obs.snapshot().time_weighted["store.level[in.tokens]"]
        assert level["max"] == 2.0
