"""Differential test of token pools against primed stores.

``TokenPool(sim, capacity, name, stock=n)`` is a :class:`Store` of ``None``
tokens that keeps only their count, and holds ``n`` of them from
construction on.  The reference is a plain ``Store`` primed with ``n``
``put(None)`` calls; outside a dispatch every one of those is a queued
``StorePut`` nobody waits on (docs/performance.md, "fixed cost of a
query").  The claim is that nothing but the event count can tell the two
apart.

Random programs take tokens from pools, hold them over a delay and return
them; pools are built before the run (outside any dispatch, as an
``Inbox`` or a ``SenderDriver`` builds its own) or by the first process
that needs them (inside a dispatch, as ``TorusNetwork._stream_window``
does).  Pooled and primed worlds must log the same ``(time, process,
action)`` trace, the same final values and clock and the same
``on_store_level`` calls, float for float — under the eager kernel and
under ``NeverQuiescent`` (``tests/sim/test_eager_grants.py``), which
queues every grant.  Under the latter every priming put is one event, so
the counts differ by exactly the tokens stocked; under the eager kernel a
put inside a dispatch may have been synchronous already and a vanished
no-op event may make a later grant synchronous, so the tokens stocked
outside a dispatch are the floor of the difference.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instrument import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.sim import Simulator, Store, TokenPool
from repro.util.errors import SimulationError
from tests.sim.test_eager_grants import NeverQuiescent


class LevelSpy(Instrumentation):
    """A flows-level hub that also logs every ``on_store_level`` call."""

    def __init__(self):
        super().__init__(tracer=NULL_TRACER)
        self.levels = []

    def on_store_level(self, store, size):
        super().on_store_level(store, size)
        self.levels.append((store.sim.now.hex(), store.name, size))


class World:
    """Token pools of fixed (capacity, stock), pooled or primed stores."""

    #: (capacity, tokens) per pool; the last two are built on first use.
    POOLS = ((1, 1), (2, 2), (3, 2), (2, 1), (4, 4))
    LAZY_FROM = 3

    def __init__(self, pooled, scheduler=None, observed=False):
        self.pooled = pooled
        self.spy = LevelSpy() if observed else None
        self.sim = Simulator(obs=self.spy, scheduler=scheduler)
        self.trace = []
        self.pools = {}
        self.stocked_outside = self.stocked_inside = 0
        for index in range(self.LAZY_FROM):
            self.pool(index)

    def pool(self, index):
        if index not in self.pools:
            capacity, tokens = self.POOLS[index]
            name = f"pool{index}"
            if self.pooled:
                store = TokenPool(self.sim, capacity, name, stock=tokens)
            else:
                store = Store(self.sim, capacity, name)
                for _ in range(tokens):
                    store.put(None)
            self.pools[index] = store
            if index < self.LAZY_FROM:
                self.stocked_outside += tokens
            else:
                self.stocked_inside += tokens
        return self.pools[index]

    def log(self, name, *action):
        self.trace.append((self.sim.now.hex(), name) + action)

    def interpret(self, name, program):
        for index, delay in program:
            token = yield self.pool(index).get()
            self.log(name, "took", index, token)
            yield self.sim.timeout(delay)
            yield self.pool(index).put(None)
            self.log(name, "returned", index)
        return name, len(program)

    def run(self, programs):
        processes = [
            self.sim.process(self.interpret(f"p{i}", program), f"p{i}")
            for i, program in enumerate(programs)
        ]
        self.sim.run()
        finals = [p.value if p.triggered else "blocked" for p in processes]
        levels = self.spy.levels if self.spy else None
        sizes = {index: pool.size for index, pool in self.pools.items()}
        return self.trace, finals, self.sim.now.hex(), levels, sizes


_delays = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 0.1 + 0.2])
_step = st.tuples(st.integers(0, len(World.POOLS) - 1), _delays)
_programs = st.lists(st.lists(_step, max_size=6), min_size=1, max_size=6)


class TestAgainstPrimedPools:
    @given(programs=_programs, observed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_every_grant_queued_the_counts_differ_by_the_tokens(self, programs, observed):
        pooled = World(True, NeverQuiescent(), observed)
        primed = World(False, NeverQuiescent(), observed)
        assert pooled.run(programs) == primed.run(programs)
        saved = primed.sim.events_dispatched - pooled.sim.events_dispatched
        assert saved == pooled.stocked_outside + pooled.stocked_inside

    @given(programs=_programs, observed=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_the_eager_kernel_observes_the_same_run(self, programs, observed):
        pooled = World(True, None, observed)
        primed = World(False, None, observed)
        outcome = pooled.run(programs)
        assert outcome == primed.run(programs)
        assert outcome == World(True, NeverQuiescent(), observed).run(programs)
        saved = primed.sim.events_dispatched - pooled.sim.events_dispatched
        assert saved >= pooled.stocked_outside

    @pytest.mark.parametrize("scheduler", ["calendar", "heap", "never-quiescent"])
    def test_outside_a_dispatch_every_priming_put_was_an_event(self, scheduler):
        """Nothing runs: the priming events are all there is to dispatch."""
        worlds = [
            World(pooled, NeverQuiescent() if scheduler == "never-quiescent" else scheduler)
            for pooled in (True, False)
        ]
        assert worlds[0].run([]) == worlds[1].run([])
        assert worlds[0].sim.events_dispatched == 0
        assert worlds[1].sim.events_dispatched == worlds[1].stocked_outside == 5


class TestStock:
    def test_tokens_are_there_at_once_and_nothing_is_scheduled(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=3, name="pool", stock=2)
        assert pool.size == 2
        assert sim.peek() == float("inf")
        assert pool.get()._value is None and pool.size == 1

    def test_the_level_series_rises_item_by_item(self):
        spy = LevelSpy()
        sim = Simulator(obs=spy)
        TokenPool(sim, capacity=2, name="pool", stock=2)
        assert spy.levels == [((0.0).hex(), "pool", 1), ((0.0).hex(), "pool", 2)]

    def test_a_full_stocked_pool_blocks_a_put(self):
        sim = Simulator()
        pool = TokenPool(sim, capacity=2, stock=2)
        blocked = pool.put(None)
        sim.run()
        assert not blocked.triggered
        pool.get()
        sim.run()
        assert blocked.processed and pool.size == 2

    @pytest.mark.parametrize("capacity, stock", [(1, 2), (2, 3), (4, 5)])
    def test_more_stock_than_capacity_is_rejected(self, capacity, stock):
        with pytest.raises(SimulationError):
            TokenPool(Simulator(), capacity=capacity, stock=stock)

    @pytest.mark.parametrize("stock", [-1, -2])
    def test_a_negative_stock_is_rejected(self, stock):
        """It used to build an empty pool: ``range(-1)`` appends nothing."""
        with pytest.raises(SimulationError):
            TokenPool(Simulator(), capacity=2, stock=stock)

    def test_unstocked_is_the_default(self):
        assert TokenPool(Simulator(), capacity=2).size == 0

    def test_a_pool_keeps_a_count_and_no_items(self):
        pool = TokenPool(Simulator(), capacity=2, name="pool", stock=1)
        assert isinstance(pool, Store)
        assert not hasattr(pool, "_items")
        pool.put("ignored")
        assert pool.size == 2 and pool.get()._value is None

    def test_a_store_takes_no_stock(self):
        with pytest.raises(TypeError):
            Store(Simulator(), 2, "store", stock=1)
