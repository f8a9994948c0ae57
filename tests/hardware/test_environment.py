"""Unit tests for the composed environment."""

import pytest

from repro.hardware.environment import BACKEND, BLUEGENE, FRONTEND
from repro.hardware.node import PPC440D, PPC970
from repro.net.channels import LatencyChannel, MpiChannel
from repro.net.ethernet import TcpStreamConnection
from repro.sim import Store
from repro.util.errors import HardwareError


class TestLookup:
    def test_clusters_present(self, env):
        assert set(env.cluster_names()) == {"fe", "be", "bg"}
        assert env.cndb(BLUEGENE).num_nodes() == 32
        assert env.cndb(BACKEND).num_nodes() == 4
        assert env.cndb(FRONTEND).num_nodes() == 2

    def test_unknown_cluster_rejected(self, env):
        with pytest.raises(HardwareError):
            env.cndb("cloud")

    def test_node_lookup(self, env):
        assert env.node("bg", 3).node_id == "bg:3"


class TestCpus:
    def test_bluegene_node_has_one_compute_cpu(self, env):
        cpu = env.cpu(env.node("bg", 0))
        assert cpu.capacity == 1

    def test_linux_node_has_two_cores(self, env):
        cpu = env.cpu(env.node("be", 0))
        assert cpu.capacity == 2

    def test_cpu_resource_is_cached(self, env):
        node = env.node("bg", 1)
        assert env.cpu(node) is env.cpu(node)

    def test_time_scale_by_clock(self, env):
        assert env.cpu_time_scale(env.node("bg", 0)) == pytest.approx(1.0)
        expected = PPC440D.clock_hz / PPC970.clock_hz
        assert env.cpu_time_scale(env.node("be", 0)) == pytest.approx(expected)


class TestChannelSelection:
    """The paper's driver rule: MPI inside BG, TCP between clusters."""

    def _open(self, env, src, dst):
        store = Store(env.sim)
        return env.open_channel(src, dst, store, "test-stream")

    def test_intra_bluegene_uses_mpi(self, env):
        channel = self._open(env, env.node("bg", 1), env.node("bg", 0))
        assert isinstance(channel, MpiChannel)

    def test_backend_to_bluegene_uses_tcp(self, env):
        channel = self._open(env, env.node("be", 0), env.node("bg", 0))
        assert isinstance(channel, TcpStreamConnection)

    def test_other_pairs_use_latency_path(self, env):
        pairs = [
            (env.node("bg", 0), env.node("fe", 0)),
            (env.node("fe", 0), env.node("be", 0)),
            (env.node("be", 0), env.node("be", 1)),
        ]
        for src, dst in pairs:
            assert isinstance(self._open(env, src, dst), LatencyChannel)

    def test_tcp_buffer_is_fixed_by_the_stack(self, env):
        channel = self._open(env, env.node("be", 0), env.node("bg", 0))
        assert channel.preferred_buffer_bytes == env.params.tcp.segment_bytes

    def test_mpi_buffer_is_configurable(self, env):
        channel = self._open(env, env.node("bg", 1), env.node("bg", 0))
        assert channel.preferred_buffer_bytes is None
