"""Scheduler backends: the calendar queue pops in exact heap order.

The kernel's contract is the total order ``(when, rank, seq)``.  The
:class:`~repro.sim.scheduler.HeapScheduler` implements it literally (a
binary heap over those tuples), so it serves as the executable spec: the
property suite below drives both backends through adversarial schedules —
same-timestamp bursts, urgent/normal mixes, ``0.0``/``-0.0`` aliasing,
interleaved pushes and pops — and requires bit-identical pop sequences.
A second layer proves the same at the simulator level: full workloads
(timeout chains, interrupts, resource contention, store handoffs) must
produce identical event traces on either backend.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    CalendarQueue,
    EventScheduler,
    HeapScheduler,
    Interrupt,
    Resource,
    ShuffleScheduler,
    Simulator,
    Store,
    make_scheduler,
    scheduler_override,
)
from repro.util.errors import SimulationError

_INF = float("inf")

#: A small pool of timestamps so bursts (many events at one instant) are
#: the common case, exactly the collision-heavy shape the calendar queue
#: optimizes for.  ``0.0``/``-0.0`` compare and hash equal but print
#: differently — both backends must treat them as one instant.
_TIME_POOL = [0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 1e-9, 1e9]

_pushes = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from(_TIME_POOL),
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
        ),
        st.integers(0, 1),  # rank: _URGENT=0 / _NORMAL=1
    ),
    max_size=200,
)


def _drain(scheduler):
    order = []
    while True:
        item = scheduler.pop()
        if item is None:
            return order
        order.append(item)


class TestPopOrderEquivalence:
    @given(pushes=_pushes)
    @settings(max_examples=200, deadline=None)
    def test_full_drain_matches_heap(self, pushes):
        heap, calendar = HeapScheduler(), CalendarQueue()
        for token, (when, rank) in enumerate(pushes):
            heap.push(when, rank, token)
            calendar.push(when, rank, token)
        assert _drain(calendar) == _drain(heap)

    @given(
        pushes=_pushes,
        pop_gaps=st.lists(st.integers(0, 4), max_size=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_interleaved_push_pop_matches_heap(self, pushes, pop_gaps):
        """Pops interleaved between pushes agree at every step.

        ``pop_gaps[i]`` pops up to that many events right after push ``i``
        — covering buckets that are consumed, deleted, and then repopulated
        at the same timestamp.
        """
        heap, calendar = HeapScheduler(), CalendarQueue()
        gaps = iter(pop_gaps)
        for token, (when, rank) in enumerate(pushes):
            heap.push(when, rank, token)
            calendar.push(when, rank, token)
            for _ in range(next(gaps, 0)):
                assert calendar.pop() == heap.pop()
                assert calendar.next_time() == heap.next_time()
        assert _drain(calendar) == _drain(heap)

    @given(pushes=_pushes)
    @settings(max_examples=100, deadline=None)
    def test_len_and_next_time_agree(self, pushes):
        heap, calendar = HeapScheduler(), CalendarQueue()
        for token, (when, rank) in enumerate(pushes):
            heap.push(when, rank, token)
            calendar.push(when, rank, token)
            assert len(calendar) == len(heap)
            assert calendar.next_time() == heap.next_time()
            assert bool(calendar) == bool(heap)

    def test_negative_zero_shares_the_zero_bucket(self):
        """-0.0 and 0.0 are one instant: insertion order alone breaks ties."""
        heap, calendar = HeapScheduler(), CalendarQueue()
        for token, when in enumerate([0.0, -0.0, 0.0, -0.0]):
            heap.push(when, 1, token)
            calendar.push(when, 1, token)
        assert [t for _, t in _drain(calendar)] == [0, 1, 2, 3]
        assert [t for _, t in _drain(heap)] == [0, 1, 2, 3]

    def test_urgent_overtakes_normal_within_an_instant(self):
        calendar = CalendarQueue()
        calendar.push(1.0, 1, "normal-a")
        calendar.push(1.0, 0, "urgent")
        calendar.push(1.0, 1, "normal-b")
        assert [e for _, e in _drain(calendar)] == [
            "urgent", "normal-a", "normal-b"
        ]


class TestSchedulerBasics:
    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_empty_scheduler_contract(self, name):
        scheduler = make_scheduler(name)
        assert scheduler.pop() is None
        assert scheduler.next_time() == _INF
        assert len(scheduler) == 0
        assert not scheduler

    def test_make_scheduler_resolves_names_default_and_instances(self):
        assert isinstance(make_scheduler("heap"), HeapScheduler)
        assert isinstance(make_scheduler("calendar"), CalendarQueue)
        assert isinstance(make_scheduler(None), SCHEDULERS[DEFAULT_SCHEDULER])
        ready = CalendarQueue()
        assert make_scheduler(ready) is ready

    def test_make_scheduler_rejects_unknown_specs(self):
        with pytest.raises(SimulationError, match="unknown scheduler"):
            make_scheduler("fibonacci")
        with pytest.raises(SimulationError, match="unknown scheduler"):
            make_scheduler(42)

    def test_only_the_calendar_is_batched(self):
        assert CalendarQueue.batched
        assert not HeapScheduler.batched
        assert not EventScheduler.batched

    def test_simulator_exposes_its_scheduler(self):
        sim = Simulator(scheduler="heap")
        assert isinstance(sim.scheduler, HeapScheduler)
        assert isinstance(Simulator().scheduler, SCHEDULERS[DEFAULT_SCHEDULER])


class TestShuffleLegality:
    """The shuffle backend pops a *legal* order: time- and rank-correct,
    permuting exactly the same-``(when, rank)`` FIFO tie-break."""

    @staticmethod
    def _spine_and_runs(drained, ranks):
        """The ``(when, rank)`` dispatch spine and the token set per run."""
        spine, runs = [], []
        for when, token in drained:
            key = (when, ranks[token])
            spine.append(key)
            if runs and runs[-1][0] == key:
                runs[-1][1].add(token)
            else:
                runs.append((key, {token}))
        return spine, runs

    @given(pushes=_pushes, seed=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_drain_is_a_rank_respecting_permutation(self, pushes, seed):
        heap, shuffle = HeapScheduler(), ShuffleScheduler(seed)
        ranks = {}
        for token, (when, rank) in enumerate(pushes):
            heap.push(when, rank, token)
            shuffle.push(when, rank, token)
            ranks[token] = rank
        heap_spine, heap_runs = self._spine_and_runs(_drain(heap), ranks)
        shuf_spine, shuf_runs = self._spine_and_runs(_drain(shuffle), ranks)
        assert shuf_spine == heap_spine
        assert shuf_runs == heap_runs

    @given(pushes=_pushes, seed=st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_same_seed_reproduces_the_same_order(self, pushes, seed):
        first, second = ShuffleScheduler(seed), ShuffleScheduler(seed)
        for token, (when, rank) in enumerate(pushes):
            first.push(when, rank, token)
            second.push(when, rank, token)
        assert _drain(first) == _drain(second)

    def test_different_seeds_permute_a_burst_differently(self):
        orders = {}
        for seed in (0, 1, 2):
            shuffle = ShuffleScheduler(seed)
            for token in range(32):
                shuffle.push(1.0, 1, token)
            orders[seed] = tuple(token for _, token in _drain(shuffle))
        assert len(set(orders.values())) > 1
        assert all(sorted(order) == list(range(32)) for order in orders.values())

    def test_urgent_still_overtakes_normal(self):
        shuffle = ShuffleScheduler(3)
        shuffle.push(1.0, 1, "normal-a")
        shuffle.push(1.0, 0, "urgent")
        shuffle.push(1.0, 1, "normal-b")
        drained = [token for _, token in _drain(shuffle)]
        assert drained[0] == "urgent"
        assert set(drained[1:]) == {"normal-a", "normal-b"}

    def test_a_burst_pushed_mid_drain_is_permuted_behind_urgent(self):
        """Pushes made at ``now`` while the batched loop drains that very
        instant land among its pending slots: permuted per seed, with the
        urgent process initialisations still ahead of every normal event."""
        orders = set()
        for seed in range(4):
            sim = Simulator(scheduler=ShuffleScheduler(seed))
            assert sim.scheduler.batched
            order = []

            def started(index):
                order.append(("urgent", index))
                yield sim.timeout(1.0)

            def burst():
                yield sim.timeout(1.0)
                for index in range(8):
                    event = sim.event()
                    event.callbacks.append(lambda _e, i=index: order.append(("normal", i)))
                    event.succeed()
                    sim.process(started(index))

            sim.process(burst())
            sim.run()
            assert [kind for kind, _ in order] == ["urgent"] * 8 + ["normal"] * 8
            assert sorted(order[:8]) == [("urgent", i) for i in range(8)]
            assert sorted(order[8:]) == [("normal", i) for i in range(8)]
            orders.add(tuple(order))
        assert len(orders) > 1

    def test_len_counts_pending_events(self):
        shuffle = ShuffleScheduler(0)
        for token in range(5):
            shuffle.push(0.0, 1, token)
        assert len(shuffle) == 5 and shuffle
        shuffle.pop()
        assert len(shuffle) == 4
        _drain(shuffle)
        assert len(shuffle) == 0 and not shuffle

    def test_scheduler_override_scopes_the_default(self):
        with scheduler_override(lambda: ShuffleScheduler(7)):
            inside = Simulator()
            assert isinstance(inside.scheduler, ShuffleScheduler)
            assert inside.scheduler.seed == 7
            # Explicit specs keep their meaning inside the override scope.
            assert isinstance(Simulator(scheduler="heap").scheduler, HeapScheduler)
        assert isinstance(Simulator().scheduler, SCHEDULERS[DEFAULT_SCHEDULER])


def _run_traced(scheduler_name, workload):
    """Run ``workload(sim, trace)`` to completion; return the trace."""
    sim = Simulator(scheduler=scheduler_name)
    trace = []
    workload(sim, trace)
    sim.run()
    return trace


#: Backends bound to the FIFO same-instant contract (bit-identical
#: traces).  ``shuffle`` deliberately permutes same-instant order — its
#: trace is a *legal* reordering, checked separately below.
_FIFO_SCHEDULERS = sorted(set(SCHEDULERS) - {"shuffle"})


def _assert_backends_agree(workload):
    traces = {
        name: _run_traced(name, workload) for name in _FIFO_SCHEDULERS
    }
    reference = traces.pop("calendar")
    for name, trace in traces.items():
        assert trace == reference, f"{name} diverged from calendar"
    assert reference, "workload produced an empty trace"
    return reference


class TestSimulatorTraceEquivalence:
    @given(
        delays=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 2.0]),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_timeout_bursts(self, delays):
        def workload(sim, trace):
            def waiter(index, delay):
                yield sim.timeout(delay)
                trace.append(("woke", index, sim.now))

            for index, delay in enumerate(delays):
                sim.process(waiter(index, delay))

        _assert_backends_agree(workload)

    @given(
        holds=st.lists(
            st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=20
        ),
        capacity=st.integers(1, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_resource_contention(self, holds, capacity):
        def workload(sim, trace):
            resource = Resource(sim, capacity=capacity)

            def user(index, hold):
                with resource.request() as req:
                    yield req
                    trace.append(("acquired", index, sim.now))
                    yield sim.timeout(hold)
                trace.append(("released", index, sim.now))

            for index, hold in enumerate(holds):
                sim.process(user(index, hold))

        _assert_backends_agree(workload)

    @given(items=st.lists(st.integers(), min_size=1, max_size=30),
           capacity=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_store_handoffs(self, items, capacity):
        def workload(sim, trace):
            store = Store(sim, capacity=capacity)

            def producer():
                for item in items:
                    yield store.put(item)
                    trace.append(("put", item, sim.now))

            def consumer():
                for _ in items:
                    item = yield store.get()
                    trace.append(("got", item, sim.now))

            sim.process(producer())
            sim.process(consumer())

        _assert_backends_agree(workload)

    def test_interrupt_mid_wait(self):
        def workload(sim, trace):
            def sleeper():
                try:
                    yield sim.timeout(10.0)
                    trace.append(("slept", sim.now))
                except Interrupt as interrupt:
                    trace.append(("interrupted", interrupt.cause, sim.now))

            def interrupter(victim):
                yield sim.timeout(3.0)
                victim.interrupt("wake up")

            victim = sim.process(sleeper())
            sim.process(interrupter(victim))

        trace = _assert_backends_agree(workload)
        assert trace == [("interrupted", "wake up", 3.0)]

    def test_until_cutoff_agrees(self):
        for name in sorted(SCHEDULERS):
            sim = Simulator(scheduler=name)
            fired = []

            def waiter(delay):
                yield sim.timeout(delay)
                fired.append(sim.now)

            for delay in (1.0, 2.0, 3.0, 4.0):
                sim.process(waiter(delay))
            sim.run(until=2.5)
            assert sim.now == 2.5
            assert fired == [1.0, 2.0], name

    def test_events_dispatched_counts_agree(self):
        counts = {}
        for name in sorted(SCHEDULERS):
            sim = Simulator(scheduler=name)

            def chain(n):
                for _ in range(n):
                    yield sim.timeout(1.0)

            sim.process(chain(10))
            sim.process(chain(10))
            sim.run()
            counts[name] = sim.events_dispatched
        assert len(set(counts.values())) == 1, counts
