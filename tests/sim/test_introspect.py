"""Waiter introspection: the diagnostic feed of the liveness analyzer."""

from repro.sim import Resource, Simulator, Store
from repro.sim.introspect import describe_event, wait_edges, waiters_of


def _blocked_getter(sim, store, name):
    def body():
        yield store.get()

    return sim.process(body(), name=name)


class TestWaitersOf:
    def test_store_getter_is_attributed_to_its_process(self):
        sim = Simulator()
        store = Store(sim, name="feed")
        process = _blocked_getter(sim, store, "consumer")
        sim.run()
        (event,) = store._getters
        assert waiters_of(event) == [process]
        assert process.is_alive

    def test_event_without_process_waiters_yields_nothing(self):
        sim = Simulator()
        event = sim.event()
        event.callbacks.append(lambda e: None)  # a bare function, no process
        assert waiters_of(event) == []


class TestWaitEdges:
    def test_store_get_edge(self):
        sim = Simulator()
        store = Store(sim, name="feed")
        process = _blocked_getter(sim, store, "consumer")
        sim.run()
        (edge,) = wait_edges([process], stores=[store])
        assert edge.kind == "store-get"
        assert "'feed'" in edge.detail
        assert edge.blockers == []

    def test_store_put_edge_on_a_full_store(self):
        sim = Simulator()
        store = Store(sim, capacity=1, name="narrow")
        store.put("occupies-the-slot")

        def producer():
            yield store.put("blocked")

        process = sim.process(producer(), name="producer")
        sim.run()
        (edge,) = wait_edges([process], stores=[store])
        assert edge.kind == "store-put"
        assert "'narrow'" in edge.detail

    def test_resource_edge_renders_occupancy(self):
        sim = Simulator()
        device = Resource(sim, capacity=1, name="link")
        holder_request = device.request()

        def contender():
            with device.request() as request:
                yield request

        process = sim.process(contender(), name="contender")
        sim.run()
        (edge,) = wait_edges([process])
        assert edge.kind == "resource"
        assert "1/1 held" in edge.detail
        device.release(holder_request)

    def test_join_edge_names_the_blocker(self):
        sim = Simulator()
        store = Store(sim, name="feed")
        wedged = _blocked_getter(sim, store, "wedged")

        def joiner():
            yield wedged

        process = sim.process(joiner(), name="joiner")
        sim.run()
        edges = {e.process.name: e for e in wait_edges([process, wedged], stores=[store])}
        assert edges["joiner"].kind == "join"
        assert edges["joiner"].blockers == [wedged]
        assert edges["wedged"].kind == "store-get"

    def test_bare_event_edge(self):
        sim = Simulator()
        rendezvous = sim.event()

        def waiter():
            yield rendezvous

        process = sim.process(waiter(), name="waiter")
        sim.run()
        (edge,) = wait_edges([process])
        assert edge.kind == "event"
        assert "rendezvous" in edge.detail

    def test_finished_processes_produce_no_edges(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        process = sim.process(quick(), name="quick")
        sim.run()
        assert wait_edges([process]) == []

    def test_duplicate_processes_reported_once(self):
        sim = Simulator()
        store = Store(sim, name="feed")
        process = _blocked_getter(sim, store, "consumer")
        sim.run()
        assert len(wait_edges([process, process], stores=[store])) == 1


class TestDescribeEvent:
    def test_condition_description_counts_pending(self):
        sim = Simulator()
        store = Store(sim, name="feed")
        first = _blocked_getter(sim, store, "a")
        second = _blocked_getter(sim, store, "b")
        condition = sim.any_of([first, second])
        sim.run()
        assert "2 events" in describe_event(condition)

    def test_timeout_description(self):
        sim = Simulator()
        timeout = sim.timeout(2.5)
        assert "2.5" in describe_event(timeout)
