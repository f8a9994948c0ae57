"""Unit tests for the Ethernet fabric and TCP ingress model."""

import pytest

from repro.hardware.environment import Environment, EnvironmentConfig
from repro.net.ethernet import TcpStreamConnection
from repro.net.message import WireBuffer
from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.sim import Store
from repro.util.errors import NetworkError


def make_connection(env, be_index=0, bg_index=0, stream="s0", slots=8):
    inbox = Store(env.sim, capacity=slots)
    connection = TcpStreamConnection(
        env.fabric, env.node("be", be_index), env.node("bg", bg_index), inbox, stream
    )
    return connection, inbox


class TestRegistry:
    def test_open_and_close_update_counts(self, env):
        connection, _ = make_connection(env)
        env.sim.run_process(connection.open())
        fabric = env.fabric
        assert fabric.distinct_external_hosts == 1
        assert fabric.io_connection_count(0) == 1
        assert fabric.io_host_count(0) == 1
        env.sim.run_process(connection.close())
        assert fabric.distinct_external_hosts == 0
        assert fabric.io_connection_count(0) == 0
        assert fabric.io_host_count(0) == 0

    def test_double_open_rejected(self, env):
        connection, _ = make_connection(env)
        env.sim.run_process(connection.open())
        with pytest.raises(NetworkError):
            env.sim.run_process(connection.open())

    def test_send_on_closed_connection_rejected(self, env):
        connection, _ = make_connection(env)
        buf = WireBuffer.data("s0", "be:0", 1000, [])
        with pytest.raises(NetworkError):
            env.sim.run_process(connection.send(buf))

    def test_duplicate_registration_rejected(self, env):
        env.fabric.register_connection(env.node("be", 0), 0, "x")
        with pytest.raises(NetworkError):
            env.fabric.register_connection(env.node("be", 0), 0, "x")

    def test_unregister_unknown_rejected(self, env):
        with pytest.raises(NetworkError):
            env.fabric.unregister_connection(env.node("be", 0), 0, "ghost")

    def test_distinct_hosts_counted_once(self, env):
        for stream in ("a", "b", "c"):
            env.fabric.register_connection(env.node("be", 1), 0, stream)
        assert env.fabric.distinct_external_hosts == 1
        assert env.fabric.io_connection_count(0) == 3


class TestPenalties:
    def test_connection_sharing_slows_the_proxy(self, env):
        fabric = env.fabric
        fabric.register_connection(env.node("be", 0), 0, "a")
        solo = fabric._io_service_rate(0)
        fabric.register_connection(env.node("be", 0), 0, "b")
        shared = fabric._io_service_rate(0)
        assert shared < solo
        expected = solo / (1 + fabric.params.io_node.connection_sharing_penalty)
        assert shared == pytest.approx(expected)

    def test_distinct_hosts_slow_the_proxy_further(self, env):
        fabric = env.fabric
        fabric.register_connection(env.node("be", 0), 0, "a")
        fabric.register_connection(env.node("be", 0), 0, "b")
        same_host = fabric._io_service_rate(0)
        fabric.unregister_connection(env.node("be", 0), 0, "b")
        fabric.register_connection(env.node("be", 1), 0, "b")
        two_hosts = fabric._io_service_rate(0)
        assert two_hosts < same_host

    def test_uplink_efficiency_degrades_with_hosts(self, env):
        fabric = env.fabric
        assert fabric._uplink_efficiency() == 1.0
        fabric.register_connection(env.node("be", 0), 0, "a")
        assert fabric._uplink_efficiency() == 1.0
        fabric.register_connection(env.node("be", 1), 1, "b")
        two = fabric._uplink_efficiency()
        fabric.register_connection(env.node("be", 2), 2, "c")
        three = fabric._uplink_efficiency()
        assert three < two < 1.0


class TestFlowControl:
    def test_window_bounds_in_flight_buffers(self, env):
        """No more than window_segments buffers of one connection may be
        between send() completion and delivery."""
        connection, inbox = make_connection(env, slots=64)
        window = env.params.tcp.window_segments
        stats = {"sent": 0, "delivered": 0, "peak": 0}

        def sender():
            yield from connection.open()
            for _ in range(20):
                buf = WireBuffer.data("s0", "be:0", 65536, [])
                yield from connection.send(buf)
                stats["sent"] += 1
                in_flight = stats["sent"] - stats["delivered"]
                stats["peak"] = max(stats["peak"], in_flight)
            yield from connection.close()

        def receiver():
            for _ in range(20):
                yield inbox.get()
                stats["delivered"] += 1

        env.sim.process(sender())
        env.sim.process(receiver())
        env.sim.run()
        assert stats["sent"] == stats["delivered"] == 20
        assert stats["peak"] <= window + 1  # +1: the buffer just sent

    def test_close_waits_for_inflight_delivery(self, env):
        connection, inbox = make_connection(env, slots=64)

        def run():
            yield from connection.open()
            for _ in range(3):
                yield from connection.send(WireBuffer.data("s0", "be:0", 65536, []))
            yield from connection.close()
            # After close, everything must already be in the inbox.
            return inbox.size

        delivered = env.sim.run_process(run())
        assert delivered == 3
        assert env.fabric.distinct_external_hosts == 0


class TestEndToEnd:
    def test_bytes_are_counted(self):
        env = Environment(EnvironmentConfig(), obs=Instrumentation(tracer=NULL_TRACER))
        connection, inbox = make_connection(env, slots=64)

        def run():
            yield from connection.open()
            for _ in range(5):
                yield from connection.send(WireBuffer.data("s0", "be:0", 65536, []))
            yield from connection.close()

        env.sim.run_process(run())
        assert env.obs.snapshot().counter("ethernet.ingress_bytes") == 5 * 65536
        assert inbox.size == 5

    def test_nic_validation(self, env):
        with pytest.raises(NetworkError):
            env.fabric.nic(env.node("bg", 0))

    def test_unknown_io_node_rejected(self, env):
        with pytest.raises(NetworkError):
            env.fabric.io_proxy(99)
