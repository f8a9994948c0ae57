"""Unit tests for the BlueGene machine model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.hardware.node import NodeKind
from repro.util.errors import HardwareError


class TestConfig:
    def test_default_is_the_paper_partition(self):
        config = BlueGeneConfig()
        assert config.num_compute_nodes == 32
        assert config.num_psets == 4

    def test_indivisible_psets_rejected(self):
        with pytest.raises(HardwareError):
            BlueGeneConfig(torus_shape=(3, 3, 1), pset_size=8)

    def test_bad_shape_rejected(self):
        with pytest.raises(HardwareError):
            BlueGeneConfig(torus_shape=(0, 4, 2))


class TestNumbering:
    def test_x_major_enumeration(self):
        machine = BlueGene()
        # Paper figure 7: nodes 0,1,2 form a line along X; node 4 is +Y of 0.
        assert machine.coord_of(0) == (0, 0, 0)
        assert machine.coord_of(1) == (1, 0, 0)
        assert machine.coord_of(2) == (2, 0, 0)
        assert machine.coord_of(4) == (0, 1, 0)
        assert machine.coord_of(16) == (0, 0, 1)

    def test_coord_index_roundtrip(self):
        machine = BlueGene()
        for index in range(machine.config.num_compute_nodes):
            assert machine.index_of(machine.coord_of(index)) == index

    def test_unknown_node_rejected(self):
        machine = BlueGene()
        with pytest.raises(HardwareError):
            machine.node(32)
        with pytest.raises(HardwareError):
            machine.index_of((9, 9, 9))

    @pytest.mark.parametrize("index", [-1, -32, 1.0, "1", None])
    def test_negative_or_non_integer_node_rejected(self, index):
        # A negative list index wraps around: node(-1) used to be node 31.
        machine = BlueGene()
        with pytest.raises(HardwareError):
            machine.node(index)
        with pytest.raises(HardwareError):
            machine.coord_of(index)
        with pytest.raises(HardwareError):
            machine.pset_of(index)


class TestPsets:
    def test_pset_membership_is_contiguous(self):
        machine = BlueGene()
        assert machine.pset_of(0) == 0
        assert machine.pset_of(7) == 0
        assert machine.pset_of(8) == 1
        assert machine.pset_of(31) == 3

    def test_nodes_in_pset(self):
        machine = BlueGene()
        members = machine.nodes_in_pset(1)
        assert [n.index for n in members] == list(range(8, 16))

    def test_unknown_pset_rejected(self):
        with pytest.raises(HardwareError):
            BlueGene().nodes_in_pset(4)

    def test_io_node_mapping(self):
        machine = BlueGene()
        io = machine.io_nodes[machine.pset_of(12)]
        assert io.kind is NodeKind.BG_IO
        assert io.index == 1

    def test_io_nodes_cannot_compute(self):
        machine = BlueGene()
        assert all(not io.is_available for io in machine.io_nodes)


class TestCnkConstraints:
    def test_one_process_per_compute_node(self):
        machine = BlueGene()
        node = machine.node(3)
        node.acquire()
        assert not node.is_available
        with pytest.raises(HardwareError):
            node.acquire()
        node.release()
        assert node.is_available

    def test_release_without_acquire_rejected(self):
        with pytest.raises(HardwareError):
            BlueGene().node(0).release()


@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 4)),
    pset=st.sampled_from([1, 2, 4, 8]),
)
def test_every_valid_partition_is_consistent(shape, pset):
    """For any divisible shape, numbering and psets stay consistent."""
    total = shape[0] * shape[1] * shape[2]
    if total % pset:
        with pytest.raises(HardwareError):
            BlueGeneConfig(torus_shape=shape, pset_size=pset)
        return
    machine = BlueGene(BlueGeneConfig(torus_shape=shape, pset_size=pset))
    assert len(machine.compute_nodes) == total
    assert len(machine.io_nodes) == total // pset
    for index in range(total):
        assert machine.index_of(machine.coord_of(index)) == index
        assert machine.pset_of(index) == index // pset
