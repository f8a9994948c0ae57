"""Unit tests for the 3D torus network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.net.jitter import Jitter
from repro.net.message import WireBuffer
from repro.net.params import TorusParams
from repro.net.torus import RouteTable, TorusNetwork
from repro.obs import Instrumentation
from repro.sim import Simulator, Store
from repro.util.errors import HardwareError, NetworkError


def make_torus(shape=(4, 4, 2), obs=None):
    sim = Simulator(obs=obs)
    machine = BlueGene(BlueGeneConfig(torus_shape=shape, pset_size=8))
    return sim, TorusNetwork(sim, machine, TorusParams(), Jitter())


def torus_distance(a, b, shape):
    """Minimal hop distance on a wrap-around torus."""
    total = 0
    for x, y, size in zip(a, b, shape):
        d = abs(x - y)
        total += min(d, size - d)
    return total


class TestRouting:
    def test_paper_figure7_sequential_routes_through_a(self):
        _, torus = make_torus()
        # Figure 7A: b=node2 -> c=node0 passes node1 (where a runs).
        assert torus.route(2, 0) == [2, 1, 0]

    def test_paper_figure7_balanced_is_direct(self):
        _, torus = make_torus()
        assert torus.route(4, 0) == [4, 0]
        assert torus.route(1, 0) == [1, 0]

    def test_self_route(self):
        _, torus = make_torus()
        assert torus.route(3, 3) == [3]

    def test_wraparound_shortcut(self):
        _, torus = make_torus()
        # 0 -> 3 along X: backward around the wrap is 1 hop.
        assert torus.route(0, 3) == [0, 3]

    def test_hop_count(self):
        _, torus = make_torus()
        assert torus.hop_count(2, 0) == 2
        assert torus.hop_count(4, 0) == 1

    @given(
        src=st.integers(0, 31),
        dst=st.integers(0, 31),
    )
    @settings(max_examples=200, deadline=None)
    def test_routes_are_minimal_and_connected(self, src, dst):
        _, torus = make_torus()
        machine = torus.bluegene
        path = torus.route(src, dst)
        assert path[0] == src and path[-1] == dst
        # Each step moves to a torus neighbour.
        shape = machine.config.torus_shape
        for here, there in zip(path, path[1:]):
            assert torus_distance(
                machine.coord_of(here), machine.coord_of(there), shape
            ) == 1
        # The route takes the minimal number of hops.
        expected = torus_distance(machine.coord_of(src), machine.coord_of(dst), shape)
        assert len(path) - 1 == expected


class TestRouteTable:
    def test_memoized_route_equals_fresh_compute(self):
        _, torus = make_torus()
        table = torus.routes
        nodes = torus.bluegene.config.num_compute_nodes
        for src in range(nodes):
            for dst in range(nodes):
                assert table.route(src, dst) == table.compute(src, dst)

    def test_repeated_lookup_hits_the_memo(self):
        _, torus = make_torus()
        first = torus.route(2, 0)
        assert torus.route(2, 0) is first  # cached list, by reference
        assert len(torus.routes) == 1

    def test_table_shared_between_networks(self):
        machine = BlueGene(BlueGeneConfig(torus_shape=(4, 4, 2), pset_size=8))
        table = RouteTable(machine)
        one = TorusNetwork(Simulator(), machine, TorusParams(), Jitter(), routes=table)
        two = TorusNetwork(Simulator(), machine, TorusParams(), Jitter(), routes=table)
        assert one.route(5, 0) is two.route(5, 0)
        assert one.routes is two.routes is table


class TestRouteTableBound:
    def _table(self, max_entries):
        machine = BlueGene(BlueGeneConfig(torus_shape=(4, 4, 2), pset_size=8))
        return RouteTable(machine, max_entries=max_entries)

    def test_memo_never_exceeds_its_bound(self):
        table = self._table(max_entries=8)
        for dst in range(20):
            table.route(0, dst)
            assert len(table) <= 8
        assert len(table) == 8

    def test_eviction_is_fifo(self):
        table = self._table(max_entries=2)
        table.route(0, 1)
        table.route(0, 2)
        table.route(0, 3)  # evicts (0, 1), the oldest insertion
        assert set(table._routes) == {(0, 2), (0, 3)}

    def test_evicted_route_recomputes_identically(self):
        table = self._table(max_entries=1)
        first = list(table.route(0, 5))
        table.route(0, 6)  # evicts (0, 5)
        assert table.route(0, 5) == first

    def test_bound_must_be_positive(self):
        with pytest.raises(NetworkError):
            self._table(max_entries=0)

    def test_approx_bytes_tracks_occupancy(self):
        table = self._table(max_entries=64)
        empty = table.approx_bytes()
        for dst in range(16):
            table.route(0, dst)
        assert table.approx_bytes() > empty


class TestTransfer:
    def _transfer(self, torus, sim, src, dst, buffers, nbytes=1000, slots=4):
        inbox = Store(sim, capacity=slots)

        def sender():
            for _ in range(buffers):
                buf = WireBuffer.data("s", f"bg:{src}", nbytes, [])
                yield from torus.send(buf, src, dst, inbox)
            yield from torus.send(WireBuffer.end_of_stream("s", f"bg:{src}"), src, dst, inbox)

        def receiver():
            count = 0
            while True:
                buf = yield inbox.get()
                if buf.eos:
                    return count
                count += 1

        sim.process(sender())
        proc = sim.process(receiver())
        sim.run()
        return proc.value

    def test_delivery_and_counters(self):
        obs = Instrumentation()
        sim, torus = make_torus(obs=obs)
        received = self._transfer(torus, sim, 1, 0, buffers=10)
        assert received == 10  # by a receiver that returns at the EOS marker
        hub = obs.snapshot()
        assert hub.counter("torus.payload_bytes") == 10_000
        assert hub.counter("torus.source_switches") == 0

    def test_send_to_self_rejected(self):
        sim, torus = make_torus()
        with pytest.raises(NetworkError):
            list(torus.send(WireBuffer.data("s", "bg:0", 10, []), 0, 0, Store(sim)))

    def test_two_hop_transfer_costs_more_than_one_hop(self):
        sim1, torus1 = make_torus()
        self._transfer(torus1, sim1, 1, 0, buffers=50)
        one_hop = sim1.now
        sim2, torus2 = make_torus()
        self._transfer(torus2, sim2, 2, 0, buffers=50)
        two_hops = sim2.now
        assert two_hops > one_hop

    def test_source_switch_penalty_counted_on_merge(self):
        obs = Instrumentation()
        sim, torus = make_torus(obs=obs)
        inbox = Store(sim, capacity=4)
        done = []

        def sender(src):
            for _ in range(20):
                buf = WireBuffer.data(f"s{src}", f"bg:{src}", 1000, [])
                yield from torus.send(buf, src, 0, inbox)
            done.append(src)

        def receiver():
            for _ in range(40):
                yield inbox.get()

        sim.process(sender(1))
        sim.process(sender(4))
        sim.process(receiver())
        sim.run()
        # alternating arrivals switch often
        assert obs.snapshot().counter("torus.source_switches") > 10

    def test_contention_slows_transfers(self):
        # One stream through an idle intermediate node vs. the same stream
        # while the intermediate node's co-processor sends its own data.
        sim1, torus1 = make_torus()
        self._transfer(torus1, sim1, 2, 0, buffers=50)
        quiet = sim1.now

        sim2, torus2 = make_torus()
        inbox_own = Store(sim2, capacity=4)

        def own_traffic():
            for _ in range(50):
                buf = WireBuffer.data("own", "bg:1", 1000, [])
                yield from torus2.send(buf, 1, 5, inbox_own)

        def own_drain():
            for _ in range(50):
                yield inbox_own.get()

        sim2.process(own_traffic())
        sim2.process(own_drain())
        inbox = Store(sim2, capacity=4)

        def contended():
            for _ in range(50):
                buf = WireBuffer.data("s", "bg:2", 1000, [])
                yield from torus2.send(buf, 2, 0, inbox)

        def drain():
            for _ in range(50):
                yield inbox.get()

        sim2.process(contended())
        proc = sim2.process(drain())
        sim2.run()
        assert proc.ok
        assert sim2.now > quiet

    def test_eos_buffer_costs_no_wire_time(self):
        obs = Instrumentation()
        sim, torus = make_torus(obs=obs)
        inbox = Store(sim, capacity=2)

        def sender():
            yield from torus.send(WireBuffer.end_of_stream("s", "bg:1"), 1, 0, inbox)

        def receiver():
            buf = yield inbox.get()
            return buf.eos

        sim.process(sender())
        proc = sim.process(receiver())
        sim.run()
        assert proc.value
        hub = obs.snapshot()
        assert hub.counter("torus.payload_bytes") == hub.counter("torus.wire_bytes") == 0


class TestStreamWindow:
    def test_in_flight_buffers_bounded(self):
        """No more than stream_window buffers of one stream are in flight
        (injected but undelivered) at any moment."""
        sim, torus = make_torus()
        window = torus.params.stream_window
        inbox = Store(sim, capacity=64)
        state = {"sent": 0, "delivered": 0, "peak": 0}

        def sender():
            for _ in range(30):
                buf = WireBuffer.data("s", "bg:2", 1000, [])
                yield from torus.send(buf, 2, 0, inbox)
                state["sent"] += 1
                in_flight = state["sent"] - state["delivered"]
                state["peak"] = max(state["peak"], in_flight)

        def receiver():
            for _ in range(30):
                yield inbox.get()
                state["delivered"] += 1

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert state["sent"] == state["delivered"] == 30
        assert state["peak"] <= window + 1  # +1 for the buffer just injected

    def test_streams_have_independent_windows(self):
        sim, torus = make_torus()
        inbox = Store(sim, capacity=64)
        finished = []

        def sender(stream, src):
            for _ in range(10):
                buf = WireBuffer.data(stream, f"bg:{src}", 1000, [])
                yield from torus.send(buf, src, 0, inbox)
            finished.append(stream)

        def receiver():
            for _ in range(20):
                yield inbox.get()

        sim.process(sender("s1", 1))
        sim.process(sender("s2", 4))
        sim.process(receiver())
        sim.run()
        assert sorted(finished) == ["s1", "s2"]


class TestLinkFaultsNameRealLinks:
    """Node -1 is not node 31: a negative index used to wrap around."""

    def test_degrading_a_link_of_a_negative_node_is_rejected(self):
        _, torus = make_torus()
        for a, b in ((-1, 0), (0, -1)):
            with pytest.raises(HardwareError):
                torus.degrade_link(a, b, 2.0)
            assert torus._link_slowdown == {}

    def test_restoring_a_link_of_a_negative_node_is_rejected(self):
        _, torus = make_torus()
        torus.degrade_link(31, 0, 2.0)
        with pytest.raises(HardwareError):
            torus.restore_link(-1, 0)
        assert torus._link_slowdown == {(31, 0): 2.0, (0, 31): 2.0}

    def test_no_coprocessor_for_a_negative_node(self):
        _, torus = make_torus()
        with pytest.raises(HardwareError):
            torus.coprocessor(-1)


class TestStreamRegistry:
    def test_counts_per_node(self):
        _, torus = make_torus()
        assert torus.incoming_stream_count(0) == 1  # floor for costing
        torus.register_stream(0, "a")
        torus.register_stream(0, "b")
        assert torus.incoming_stream_count(0) == 2
        torus.unregister_stream(0, "a")
        assert torus.incoming_stream_count(0) == 1

    def test_unregister_unknown_is_harmless(self):
        _, torus = make_torus()
        torus.unregister_stream(5, "ghost")
        assert torus.incoming_stream_count(5) == 1

    def test_switch_cost_scales_with_streams(self):
        _, torus = make_torus()
        assert torus._switch_cost(0) == 0.0
        torus.register_stream(0, "a")
        assert torus._switch_cost(0) == 0.0  # a single stream never switches
        torus.register_stream(0, "b")
        penalty = torus.params.source_switch_penalty
        assert torus._switch_cost(0) == pytest.approx(penalty)
        torus.register_stream(0, "c")
        assert torus._switch_cost(0) == pytest.approx(2 * penalty)


class TestStreamStateIsFreed:
    """Per-stream state (the window's token pool) dies with its stream."""

    def test_redeploying_a_query_leaves_no_window_behind(self):
        from repro.coordinator.deployer import Deployer
        from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
        from repro.hardware.environment import EnvironmentConfig, shared_template
        from repro.scsql.plan import compile_plan

        env = shared_template(EnvironmentConfig()).fork(seed=3)
        deployer = Deployer(env)
        plan = compile_plan(merge_query(30_000, 4, *SEQUENTIAL))
        for generation in range(6):
            deployment = deployer.deploy(deployer.place(plan), rp_prefix=f"q+r{generation}/")
            assert deployment.run().result == [8]
            deployment.teardown()
            assert env.torus._stream_windows == {}
            assert env.torus.in_flight_census() == []

    def test_a_generation_killed_mid_flight_is_freed_once_it_drained(self):
        from repro.coordinator.deployer import Deployer
        from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
        from repro.hardware.environment import EnvironmentConfig, shared_template
        from repro.scsql.plan import compile_plan

        env = shared_template(EnvironmentConfig()).fork(seed=3)
        deployer = Deployer(env)
        plan = compile_plan(merge_query(300_000, 4, *SEQUENTIAL))
        deployment = deployer.deploy(deployer.place(plan), rp_prefix="q/")
        deployment.start()
        env.sim.run(until=0.005)
        assert env.torus.in_flight_census()  # buffers are travelling
        deployment.teardown()
        env.sim.run()
        assert env.torus._stream_windows == {} and env.torus.in_flight_census() == []

    def test_an_unregistered_stream_ends_with_no_window_and_nothing_in_flight(self):
        """Buffer k's delivery may see nothing in flight while buffer k+1,
        its window slot taken, is still injecting; the window is forgotten
        then, and k+1's slot must go back to the pool it came from."""
        sim, torus = make_torus()
        assert TestTransfer()._transfer(torus, sim, 1, 0, buffers=10) == 10
        assert torus.in_flight_census() == [] and torus._stream_windows == {}

    def test_mpi_close_does_not_drop_the_window_under_a_flying_buffer(self):
        sim, torus = make_torus()
        inbox = Store(sim)

        def sender():
            torus.register_stream(0, "s")
            for _ in range(3):
                yield from torus.send(WireBuffer.data("s", "bg:26", 1000, []), 26, 0, inbox)
            torus.unregister_stream(0, "s")  # local completion: two still fly
            assert "s" in torus._stream_windows

        sim.process(sender())
        sim.run()
        assert inbox.size == 3
        assert torus._stream_windows == {} and torus.in_flight_census() == []

    def test_a_journey_parked_on_a_full_inbox_is_a_live_waiter(self):
        from repro.analysis.sanitize import _live_waiters
        from repro.engine.inbox import Inbox
        from repro.sim.events import Detached
        from repro.sim.introspect import waiters_of

        sim, torus = make_torus()
        inbox = Inbox(sim, slots=1)  # nobody releases the slot

        def sender():
            for _ in range(2):
                yield from torus.send(WireBuffer.data("s", "bg:26", 1000, []), 26, 0, inbox)

        sim.process(sender())
        sim.run()
        tokens, items = inbox.kernel_stores()
        assert (inbox.depth, tokens.pending_gets) == (1, 1)
        (blocked,) = tokens._getters
        (journey,) = waiters_of(blocked)
        assert isinstance(journey, Detached)
        assert journey._generator.gi_frame.f_locals["buffer"].stream_id == "s"
        # What the SAN203 census counts: the deposit is held by a live waiter.
        assert (_live_waiters(tokens), _live_waiters(items)) == (1, 0)
        assert torus.in_flight_census() == [("s", 1)]

    def test_a_buffer_counts_as_in_flight_before_its_continuation_is_armed(self, monkeypatch):
        from repro.sim import Simulator

        sim, torus = make_torus()
        armed = []
        detach = Simulator.detach

        def spy(self, generator, start=None):
            armed.append((torus.in_flight_census(), generator.__name__, start.delay))
            detach(self, generator, start)

        monkeypatch.setattr(Simulator, "detach", spy)
        inbox = Store(sim)
        sim.process(torus.send(WireBuffer.data("s", "bg:26", 1000, []), 26, 0, inbox))
        sim.run()
        # Counted first; a journey started on the hop-latency timeout,
        # nothing at ``now``.
        assert armed == [([("s", 1)], "_forward", torus.params.hop_latency * 5)]
        assert inbox.size == 1 and torus.in_flight_census() == []
