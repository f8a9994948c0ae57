"""Unit tests for the node model."""

import pytest

from repro.hardware.linux_cluster import LinuxCluster, LinuxClusterConfig
from repro.hardware.node import (
    PPC440D,
    CpuSpec,
    Node,
    NodeCapabilities,
    NodeKind,
)
from repro.util.errors import HardwareError


class TestCapabilities:
    def test_cnk_is_single_process_no_server(self):
        caps = NodeCapabilities.cnk()
        assert caps.max_processes == 1
        assert not caps.can_listen
        assert caps.can_compute

    def test_io_node_cannot_compute(self):
        caps = NodeCapabilities.io_node()
        assert not caps.can_compute
        assert caps.can_listen

    def test_linux_is_unconstrained(self):
        caps = NodeCapabilities.linux()
        assert caps.max_processes is None
        assert caps.can_listen and caps.can_compute


class TestNode:
    def _linux_node(self):
        return LinuxCluster(LinuxClusterConfig("be", 1)).node(0)

    def test_bluegene_compute_needs_coordinate(self):
        with pytest.raises(HardwareError):
            Node(
                node_id="bg:0",
                cluster="bg",
                index=0,
                kind=NodeKind.BG_COMPUTE,
                cpu=PPC440D,
                capabilities=NodeCapabilities.cnk(),
            )

    def test_linux_node_hosts_many_processes(self):
        node = self._linux_node()
        for _ in range(10):
            node.acquire()
        assert node.is_available
        assert node.running_processes == 10

    def test_cluster_size_validation(self):
        with pytest.raises(HardwareError):
            LinuxClusterConfig("be", 0)

    @pytest.mark.parametrize("index", [-1, 4, 1.0, None])
    def test_cluster_rejects_a_number_that_is_not_a_node(self, index):
        # A negative list index wraps around: node(-1) used to be the last node.
        cluster = LinuxCluster(LinuxClusterConfig("be", 4))
        assert cluster.node(3).index == 3
        with pytest.raises(HardwareError):
            cluster.node(index)

    def test_cluster_node_lookup_error(self):
        cluster = LinuxCluster(LinuxClusterConfig("fe", 2))
        with pytest.raises(HardwareError):
            cluster.node(2)

    def test_cpu_spec_str(self):
        spec = CpuSpec(model="TestChip", clock_hz=1e9, cores=2)
        assert "TestChip" in str(spec)
        assert "1000" in str(spec)
