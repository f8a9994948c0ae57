"""Bound instruments are indistinguishable from name-keyed metric calls.

The hub resolves each entity's ``Counter`` / ``TimeWeightedStat`` once and
then touches the objects directly.  :class:`NameKeyedHub` below is the
executable reference: the hooks as they were before, one formatted name and
one ``registry.add`` / series update per observation.  Any
sequence of kernel operations must leave the two registries identical — the
same keys in the same order, the same floats, the same dwell histograms.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.sim import Resource, Simulator, Store, TokenPool


class NameKeyedHub(Instrumentation):
    """The reference: every hook resolves its metrics by name, every time."""

    def _update_series(self, name, now, value):
        self.metrics.time_weighted(name, start_ts=now).update(now, value)

    def on_step(self, event, now):
        self.metrics.add("sim.events_processed")

    def on_timeout(self, timeout):
        self.metrics.add("sim.timeouts_created")

    def on_process_created(self, process):
        self.metrics.add("sim.processes_started")

    def on_process_finished(self, process, ok):
        self.metrics.add("sim.processes_finished")
        if not ok:
            self.metrics.add("sim.processes_failed")

    def on_resource_wait(self, resource):
        key = resource.name
        self.metrics.add(f"resource.waits[{key}]")
        self._update_series(
            f"resource.queue[{key}]", resource.sim.now, resource.queue_length
        )

    def on_resource_acquire(self, resource, request):
        key = resource.name
        now = resource.sim.now
        self.metrics.add(f"resource.acquires[{key}]")
        self._update_series(f"resource.busy[{key}]", now, resource.count)
        self._update_series(f"resource.queue[{key}]", now, resource.queue_length)

    def on_resource_release(self, resource, request):
        self._update_series(
            f"resource.busy[{resource.name}]", resource.sim.now, resource.count
        )

    def on_resource_withdraw(self, resource):
        key = resource.name
        self.metrics.add(f"resource.withdrawals[{key}]")
        self._update_series(
            f"resource.queue[{key}]", resource.sim.now, resource.queue_length
        )

    def on_store_level(self, store, size):
        assert size == store.size  # the level handed over is the store's own
        self._update_series(f"store.level[{store.name}]", store.sim.now, store.size)


OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(
            ["request", "release", "cancel", "put", "get", "advance", "process"]
        ),
        st.integers(0, 7),
        st.sampled_from([0.0, 0.25, 1.0, 1e-9, 3.5]),
    ),
    max_size=80,
)


def drive(hub, operations):
    """Apply ``operations`` to a fresh simulator observed by ``hub``."""
    sim = Simulator(obs=hub)
    resources = [
        Resource(sim, capacity=capacity, name=f"r{index}")
        for index, capacity in enumerate((1, 2, 1))
    ]
    stores = [
        Store(sim, capacity=2, name="bounded"),
        Store(sim, name="open"),
        TokenPool(sim, capacity=2, name="pool", stock=1),
    ]
    outstanding = []

    def body(delay):
        # No ``with`` block: a generator left suspended inside one releases
        # its request when it is collected, at a time the test cannot fix.
        yield sim.timeout(delay)
        request = resources[0].request()
        yield request
        resources[0].release(request)

    for name, index, amount in operations:
        if name == "request":
            outstanding.append(resources[index % len(resources)].request())
        elif name == "release" and outstanding:
            request = outstanding.pop(index % len(outstanding))
            request.resource.release(request)
        elif name == "cancel" and outstanding:
            outstanding.pop(index % len(outstanding)).cancel()
        elif name == "put":
            stores[index % len(stores)].put(amount)
        elif name == "get":
            stores[index % len(stores)].get()
        elif name == "advance":
            sim.timeout(amount)
            sim.run()
        elif name == "process":
            sim.process(body(amount))
    return sim


def registry_state(hub):
    """Everything a registry holds, key order included."""
    metrics = hub.metrics
    return {
        "counters": [(name, c.value) for name, c in metrics.counters.items()],
        "series": [
            (name, s.current, s.integral, s.maximum, s._start_ts, s._last_ts,
             sorted(s.dwell.items()))
            for name, s in metrics.series.items()
        ],
    }


@given(operations=OPERATIONS)
@settings(max_examples=300, deadline=None)
def test_bound_hooks_leave_the_registry_the_name_keyed_hooks_leave(operations):
    bound = Instrumentation(tracer=NULL_TRACER)
    reference = NameKeyedHub(tracer=NULL_TRACER)
    drive(bound, operations)
    drive(reference, operations)
    assert registry_state(bound) == registry_state(reference)
    frozen, expected = bound.snapshot(), reference.snapshot()
    assert frozen == expected
    assert list(frozen.counters) == list(expected.counters)
    assert list(frozen.time_weighted) == list(expected.time_weighted)


def test_an_entity_resolves_its_instruments_once():
    hub = Instrumentation(tracer=NULL_TRACER)
    sim = Simulator(obs=hub)
    resource = Resource(sim, name="coproc[1]")
    first = resource.request()
    bound = resource._bound
    assert bound.acquires is hub.metrics.counters["resource.acquires[coproc[1]]"]
    assert bound.busy is hub.metrics.series["resource.busy[coproc[1]]"]
    resource.release(first)
    resource.request()
    assert resource._bound is bound and bound.acquires.value == 2
    # Uncontended so far: the contended-path counters do not exist yet.
    assert "resource.waits[coproc[1]]" not in hub.metrics.counters
    resource.request()
    assert hub.metrics.counters["resource.waits[coproc[1]]"] is bound.waits


def test_an_unobserved_entity_binds_nothing():
    sim = Simulator()
    resource, store = Resource(sim, name="r"), Store(sim, name="s")
    resource.release(resource.request())
    store.put(1)
    store.get()
    assert resource._bound is None and store._bound is None
