"""Unit tests for Resource and Store."""

import gc

import pytest

from repro.sim import Interrupt, Resource, Store, TokenPool
from repro.util.errors import SimulationError


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_grants_up_to_capacity(self, sim):
        resource = Resource(sim, capacity=2)
        first = resource.request()
        second = resource.request()
        third = resource.request()
        assert first.triggered and second.triggered
        assert not third.triggered
        assert resource.count == 2
        assert resource.queue_length == 1

    def test_fifo_service_order(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag, hold):
            with resource.request() as request:
                yield request
                order.append((sim.now, tag))
                yield sim.timeout(hold)

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.process(worker("c", 1.0))
        sim.run()
        assert order == [(0.0, "a"), (2.0, "b"), (3.0, "c")]

    def test_release_ungranted_request_withdraws_it(self, sim):
        resource = Resource(sim, capacity=1)
        held = resource.request()
        waiting = resource.request()
        resource.release(waiting)  # withdraw from the queue
        assert resource.queue_length == 0
        resource.release(held)
        assert resource.count == 0

    def test_context_manager_releases_on_interrupt(self, sim):
        resource = Resource(sim, capacity=1)

        def holder():
            with resource.request() as request:
                yield request
                try:
                    yield sim.timeout(100.0)
                except Interrupt:
                    pass

        def waiter():
            with resource.request() as request:
                yield request
                return sim.now

        holding = sim.process(holder())
        waiting = sim.process(waiter())

        def interrupter():
            yield sim.timeout(1.0)
            holding.interrupt()

        sim.process(interrupter())
        sim.run()
        assert waiting.value == pytest.approx(1.0)
        assert resource.count == 0

    def test_released_slot_goes_to_longest_waiter(self, sim):
        resource = Resource(sim, capacity=1)
        grants = []

        def worker(tag):
            with resource.request() as request:
                yield request
                grants.append(tag)
                yield sim.timeout(1.0)

        for tag in range(5):
            sim.process(worker(tag))
        sim.run()
        assert grants == [0, 1, 2, 3, 4]

    def test_a_grant_is_worth_none_at_every_grant_site(self, sim):
        """A request granted at once, granted by a scheduled event or handed
        over by a release yields ``None``: a request whose value is itself
        is a reference cycle, garbage only the collector frees."""
        resource = Resource(sim, capacity=1)
        seen = []

        def worker():
            with resource.request() as request:
                site = (
                    "processed" if request.processed
                    else "scheduled" if request.triggered else "waiting"
                )
                seen.append((site, (yield request), request.value))
                yield sim.timeout(1.0)

        sim.process(worker())
        sim.process(worker())  # pending at the same instant: no synchronous grant
        sim.run()
        sim.process(worker())  # the only event of its instant: granted processed
        sim.run()
        assert seen == [
            ("scheduled", None, None), ("waiting", None, None), ("processed", None, None),
        ]


class TestStore:
    def test_capacity_validation(self, sim):
        with pytest.raises(SimulationError):
            Store(sim, capacity=0)

    def test_put_get_fifo(self, sim):
        store = Store(sim)
        received = []

        def producer():
            for i in range(5):
                yield store.put(i)

        def consumer():
            for _ in range(5):
                received.append((yield store.get()))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == [0, 1, 2, 3, 4]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = {}

        def consumer():
            got["value"] = yield store.get()
            got["at"] = sim.now

        def producer():
            yield sim.timeout(3.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == {"value": "late", "at": 3.0}

    def test_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        times = []

        def producer():
            for i in range(3):
                yield store.put(i)
                times.append(sim.now)

        def consumer():
            for _ in range(3):
                yield sim.timeout(2.0)
                yield store.get()

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        # First put is immediate; each later put waits for a get (t=2, 4).
        assert times == [0.0, 2.0, 4.0]

    def test_waiting_getters_served_in_order(self, sim):
        store = Store(sim)
        order = []

        def consumer(tag):
            value = yield store.get()
            order.append((tag, value))

        for tag in ("a", "b"):
            sim.process(consumer(tag))

        def producer():
            yield store.put(1)
            yield store.put(2)

        sim.process(producer())
        sim.run()
        assert order == [("a", 1), ("b", 2)]

    def test_size_property(self, sim):
        store = Store(sim)
        store.put("x")
        store.put("y")
        assert store.size == 2


class TestWaiterQueuesAreLazy:
    """A store or resource that never had a waiter never builds a queue,
    and a getter or resource queue that drains is the sentinel again."""

    def test_queues_start_as_the_shared_sentinel(self, sim):
        from repro.sim.resources import _NO_WAITERS

        resource, store = Resource(sim), Store(sim, capacity=1)
        assert resource._waiting is store._getters is store._putters is _NO_WAITERS
        assert (resource.queue_length, store.pending_gets) == (0, 0)
        held = resource.request()
        resource.release(held)
        resource.release(held)  # a second release withdraws from the sentinel
        store.put(1)
        store.get()
        assert resource._waiting is store._getters is store._putters is _NO_WAITERS
        held, waiting = resource.request(), resource.request()
        store.get()  # waits: the store is empty
        assert (resource.queue_length, store.pending_gets) == (1, 1)
        assert [type(q) for q in (resource._waiting, store._getters)] == [list, list]
        store.put(2)  # serves the getter: the drained queue is the sentinel again
        assert store._getters is _NO_WAITERS and store.pending_gets == 0
        store.put(3)
        store.put(4)  # waits: the store is full
        assert [type(q) for q in (resource._waiting, store._putters)] == [list, list]
        resource.release(held)  # grants the waiter: the sentinel again
        assert resource._users == [waiting] and resource._waiting is _NO_WAITERS

    def test_a_withdrawn_last_waiter_leaves_the_sentinel(self, sim):
        from repro.sim.resources import _NO_WAITERS

        resource = Resource(sim)
        held, first, second = resource.request(), resource.request(), resource.request()
        resource.release(first)  # withdraws a waiter: one still waits
        assert resource._waiting == [second]
        resource.release(second)  # withdraws the last one
        assert resource._waiting is _NO_WAITERS and resource._users == [held]

    def test_a_drained_pool_queue_is_the_sentinel_again(self, sim):
        from repro.sim.resources import _NO_WAITERS

        pool = TokenPool(sim, capacity=2)
        first, second = pool.get(), pool.get()  # both wait: the pool is empty
        assert pool._getters == [first, second]
        pool.put(None)
        assert pool._getters == [second]
        pool.put(None)
        assert pool._getters is _NO_WAITERS and pool.size == 0
        sim.run()
        assert first.ok and second.ok

    def test_a_session_allocates_none_at_submit(self):
        import gc

        from repro.core.experiments.scale import scale_config, scale_stream_query
        from repro.core.multiquery import MultiQuerySession
        from repro.hardware.environment import shared_template
        from repro.scsql.plan import compile_plan
        from repro.sim.resources import _NO_WAITERS

        env = shared_template(scale_config((8, 8, 8))).fork(seed=0)
        session = MultiQuerySession(env)
        plan = compile_plan(scale_stream_query(10_000, 1))
        for _ in range(64):
            session.submit(plan, payload_bytes=10_000)
        stores = [o for o in gc.get_objects() if isinstance(o, Store) and o.sim is env.sim]
        assert len(stores) > 64 * 8
        for store in stores:
            assert store._getters is _NO_WAITERS and store._putters is _NO_WAITERS
        result = session.run()
        assert len(result.outcomes) == 64
        session.teardown()


def _p2p_query():
    return (
        "select extract(b) from sp a, sp b "
        "where b=sp(streamof(count(extract(a))), 'bg', 0) "
        "and a=sp(gen_array(30000,8), 'bg', 26);"
    ), 1000, (8,)


def _merge_query():
    from repro.core.experiments.fig8 import BALANCED, merge_query

    return merge_query(300_000, 8, *BALANCED), 10_000, (16,)


def _inbound_query():
    from repro.core.experiments.fig15 import inbound_query

    return inbound_query(5, 4, 300_000, 3), None, (12,)


class TestARunMakesNoCyclicGarbage:
    """One op each of the ledger's torus, merge and Ethernet workloads, with
    the collector off: ``run`` leaves nothing for it to free.  When a granted
    request's value was the request itself, these ops left 380, 1 938 and
    350 request self-cycles behind."""

    @pytest.mark.parametrize(
        "query", [_p2p_query, _merge_query, _inbound_query],
        ids=["p2p_torus", "merge_torus", "inbound_eth"],
    )
    def test_collect_after_run_frees_nothing(self, query):
        from repro.coordinator.deployer import Deployer
        from repro.engine.settings import ExecutionSettings
        from repro.hardware.environment import EnvironmentConfig, shared_template
        from repro.scsql.plan import compile_plan

        text, buffer_bytes, expected = query()
        settings = (
            ExecutionSettings(mpi_buffer_bytes=buffer_bytes, double_buffering=True)
            if buffer_bytes else ExecutionSettings()
        )
        plan = compile_plan(text, settings=settings)
        template = shared_template(EnvironmentConfig())
        gc.collect()
        gc.disable()
        try:
            env = template.fork(seed=0)
            deployer = Deployer(env)
            deployment = deployer.deploy(deployer.place(plan, settings=settings))
            assert gc.collect() == 0  # set-up left nothing either
            report = deployment.run()
            freed = gc.collect()
            deployment.teardown()
        finally:
            gc.enable()
        assert tuple(report.result) == expected
        assert freed == 0
