"""Unit tests for the compute node database."""

import pytest

from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.linux_cluster import LinuxCluster, LinuxClusterConfig
from repro.util.errors import HardwareError


@pytest.fixture
def bg_cndb():
    return ComputeNodeDatabase("bg", BlueGene().compute_nodes)


@pytest.fixture
def be_cndb():
    return ComputeNodeDatabase("be", LinuxCluster(LinuxClusterConfig("be", 4)).nodes)


class TestBasics:
    def test_empty_rejected(self):
        with pytest.raises(HardwareError):
            ComputeNodeDatabase("x", [])

    def test_lookup(self, bg_cndb):
        assert bg_cndb.node(5).index == 5
        with pytest.raises(HardwareError):
            bg_cndb.node(99)

    def test_available_nodes(self, bg_cndb):
        assert len(bg_cndb.available_nodes()) == 32
        bg_cndb.node(0).acquire()
        assert len(bg_cndb.available_nodes()) == 31


class TestRoundRobin:
    def test_next_round_robin_cycles(self, be_cndb):
        seen = [be_cndb.next_round_robin() for _ in range(6)]
        assert seen == [0, 1, 2, 3, 0, 1]


class TestPsetQueries:
    def test_nodes_in_pset(self, bg_cndb):
        assert bg_cndb.nodes_in_pset(2) == list(range(16, 24))

    def test_unknown_pset(self, bg_cndb):
        with pytest.raises(HardwareError):
            bg_cndb.nodes_in_pset(9)

    def test_psetrr_alternates_psets(self, bg_cndb):
        sequence = bg_cndb.pset_round_robin()
        # Successive entries belong to successive psets (0,1,2,3,0,1,...).
        machine = BlueGene()
        psets = [machine.pset_of(i) for i in sequence[:8]]
        assert psets == [0, 1, 2, 3, 0, 1, 2, 3]
        assert sorted(sequence) == list(range(32))

    def test_psetrr_requires_psets(self, be_cndb):
        with pytest.raises(HardwareError):
            be_cndb.pset_round_robin()


class _Untouchable(list):
    """A node list that fails the test if anything reads it."""

    def _touched(self, *args):
        raise AssertionError("node() walked the node list")

    __iter__ = __getitem__ = __len__ = __contains__ = _touched


class TestNodeIndex:
    def test_lookup_does_not_walk_the_node_list(self):
        machine = BlueGene(BlueGeneConfig(torus_shape=(16, 16, 16)))
        cndb = ComputeNodeDatabase("bg", machine.compute_nodes)
        nodes = cndb.all_nodes()
        cndb._nodes = _Untouchable()  # a spy, not a timer
        for index in range(4096):
            assert cndb.node(index) is nodes[index]

    def test_first_node_wins_a_duplicate_index(self):
        nodes = LinuxCluster(LinuxClusterConfig("be", 2)).nodes
        twin = nodes[0].replace()
        cndb = ComputeNodeDatabase("be", [nodes[0], twin, nodes[1]])
        assert cndb.node(0) is nodes[0]

    @pytest.mark.parametrize("index", [-1, 32, None, "3", [3]])
    def test_unknown_or_unhashable_index_rejected(self, bg_cndb, index):
        with pytest.raises(HardwareError):
            bg_cndb.node(index)
