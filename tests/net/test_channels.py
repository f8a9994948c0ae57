"""Unit tests for the channel abstraction."""

import pytest

from repro.net.channels import LatencyChannel, MpiChannel
from repro.net.ethernet import TcpStreamConnection
from repro.net.message import WireBuffer
from repro.sim import Store
from repro.util.errors import NetworkError


class TestEndpointValidation:
    def test_mpi_requires_bluegene_endpoints(self, env):
        store = Store(env.sim)
        with pytest.raises(NetworkError):
            MpiChannel(env.sim, env.node("be", 0), env.node("bg", 0), store, env.torus)

    def test_tcp_requires_linux_to_bluegene(self, env):
        store = Store(env.sim)
        with pytest.raises(NetworkError):
            TcpStreamConnection(
                env.fabric, env.node("bg", 0), env.node("bg", 1), store, "s"
            )


class TestLatencyChannel:
    def test_delivers_with_latency(self, quiet_env):
        env = quiet_env
        store = Store(env.sim)
        channel = LatencyChannel(
            env.sim, env.node("bg", 0), env.node("fe", 0), store, env.params
        )

        def run():
            yield from channel.open()
            yield from channel.send(WireBuffer.data("s", "bg:0", 125_000, []))
            yield from channel.close()
            buf = yield store.get()
            return buf.nbytes, env.sim.now

        nbytes, elapsed = env.sim.run_process(run())
        assert nbytes == 125_000
        expected = env.params.ethernet.switch_latency + 125_000 / env.params.ethernet.nic_rate
        assert elapsed == pytest.approx(expected)


class TestMpiChannelSend:
    def test_orders_buffers(self, env):
        inbox = Store(env.sim, capacity=4)
        channel = MpiChannel(env.sim, env.node("bg", 1), env.node("bg", 0), inbox, env.torus)
        sent = [WireBuffer.data("s", "bg:1", 1000, []) for _ in range(5)]

        def sender():
            yield from channel.open()
            for buf in sent:
                yield from channel.send(buf)
            yield from channel.close()

        def receiver():
            got = []
            for _ in range(5):
                got.append((yield inbox.get()))
            return got

        env.sim.process(sender())
        proc = env.sim.process(receiver())
        env.sim.run()
        assert [b.buffer_id for b in proc.value] == [b.buffer_id for b in sent]
