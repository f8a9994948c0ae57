"""Unit tests for the composed environment."""

import pytest

from repro.hardware.bluegene import BlueGeneConfig
from repro.hardware.environment import (
    BACKEND,
    BLUEGENE,
    FRONTEND,
    TEMPLATE_CACHE_SIZE,
    EnvironmentConfig,
    _template,
    shared_template,
)
from repro.hardware.node import PPC440D, PPC970
from repro.net.channels import LatencyChannel, MpiChannel
from repro.net.ethernet import TcpStreamConnection
from repro.sim import Store
from repro.util.errors import HardwareError
from tests.counting import frames_entered


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


class TestTemplateCache:
    @staticmethod
    def _configs(count):
        return [EnvironmentConfig(bluegene=BlueGeneConfig(pset_size=4), backend_nodes=1 + n)
                for n in range(count)]

    def test_keeps_the_most_recently_used_templates(self):
        _template.cache_clear()
        first, *rest = self._configs(TEMPLATE_CACHE_SIZE + 1)
        kept = shared_template(first)
        for config in rest[:-1]:
            shared_template(config)
        assert shared_template(first) is kept  # a hit: `first` is the newest now
        shared_template(rest[-1])  # one past the bound evicts the oldest, rest[0]
        assert _template.cache_info().currsize == TEMPLATE_CACHE_SIZE
        assert shared_template(first) is kept
        misses = _template.cache_info().misses
        shared_template(rest[0])
        assert _template.cache_info().misses == misses + 1

    def test_a_seed_shares_its_topology_template(self):
        config = EnvironmentConfig()
        assert shared_template(config.with_seed(7)) is shared_template(config)

    @staticmethod
    def _hashes(config):
        """The records whose ``__hash__`` one template lookup and fork ran."""
        hashes = []

        def on_call(layer, frame):
            if frame.f_code.co_name == "__hash__":
                hashes.append(type(frame.f_locals["self"]).__name__)

        frames_entered(lambda: shared_template(config).fork(seed=2),
                       ["util", "hardware", "net"], on_call)
        return hashes

    def test_a_second_fork_of_one_config_hashes_nothing(self):
        """The topology key is seven records (the BlueGene shape, the
        network parameters and their five sections); a workload forking
        from one config pays for hashing them on its first lookup only."""
        config, other = self._configs(2)
        key = ["BlueGeneConfig", "NetworkParams", "TorusParams", "EthernetParams",
               "TcpParams", "CpuCostParams", "IONodeParams"]
        assert sorted(self._hashes(config)) == sorted(key)
        assert self._hashes(config) == []
        assert sorted(self._hashes(other)) == sorted(key)
        assert shared_template(other) is not shared_template(config)
        assert shared_template(other.with_seed(3)) is shared_template(other)
