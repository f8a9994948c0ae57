"""Unit tests for allocation sequences and node selectors."""

import pytest

from repro.coordinator.allocation import (
    AllocationSequence,
    KnowledgeBasedSelector,
    NaiveSelector,
    in_pset_sequence,
    pset_round_robin_sequence,
    urr_sequence,
)
from repro.hardware.bluegene import BlueGene
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.linux_cluster import LinuxCluster, LinuxClusterConfig
from repro.util.errors import AllocationError


@pytest.fixture
def bg_cndb():
    return ComputeNodeDatabase("bg", BlueGene().compute_nodes)


@pytest.fixture
def be_cndb():
    return ComputeNodeDatabase("be", LinuxCluster(LinuxClusterConfig("be", 4)).nodes)


class TestAllocationSequence:
    def test_constant_selects_exactly_that_node(self, bg_cndb):
        sequence = AllocationSequence(5)
        assert sequence.select(bg_cndb).index == 5

    def test_constant_busy_node_fails(self, bg_cndb):
        bg_cndb.node(5).acquire()
        with pytest.raises(AllocationError, match="busy"):
            AllocationSequence(5).select(bg_cndb)

    def test_constant_reusable_for_multiprocess_nodes(self, be_cndb):
        sequence = AllocationSequence(1)
        # The paper's Query 1: every back-end SP lands on node 1.
        for _ in range(5):
            node = sequence.select(be_cndb)
            assert node.index == 1
            node.acquire()

    def test_list_skips_busy_nodes(self, bg_cndb):
        bg_cndb.node(3).acquire()
        sequence = AllocationSequence([3, 4, 5])
        assert sequence.select(bg_cndb).index == 4

    def test_list_order_is_preference_order(self, bg_cndb):
        # "the first available node in the allocation sequence", not the
        # lowest-numbered one.
        assert AllocationSequence([5, 3, 1]).select(bg_cndb).index == 5
        bg_cndb.node(5).acquire()
        assert AllocationSequence([5, 3, 1]).select(bg_cndb).index == 3

    def test_list_naming_an_absent_node_fails(self, bg_cndb):
        # The absent node is an error even though a later one is free.
        with pytest.raises(AllocationError, match="does not exist"):
            AllocationSequence([99, 0]).select(bg_cndb)

    def test_exhausted_sequence_fails(self, bg_cndb):
        bg_cndb.node(3).acquire()
        with pytest.raises(AllocationError, match="no available node"):
            AllocationSequence([3]).select(bg_cndb)

    def test_sequence_is_consumed_statefully(self, bg_cndb):
        sequence = AllocationSequence([3, 4, 5])
        first = sequence.select(bg_cndb)
        first.acquire()
        second = sequence.select(bg_cndb)
        assert (first.index, second.index) == (3, 4)

    def test_unknown_node_fails(self, bg_cndb):
        with pytest.raises(AllocationError, match="does not exist"):
            AllocationSequence(99).select(bg_cndb)

    def test_boolean_rejected(self):
        with pytest.raises(AllocationError):
            AllocationSequence(True)


class TestAllocationQueries:
    def test_urr_hands_out_successive_nodes(self, be_cndb):
        sequence = urr_sequence(be_cndb)
        picks = []
        for _ in range(6):
            node = sequence.select(be_cndb)
            picks.append(node.index)
        # Linux nodes accept many processes, so urr cycles the cluster.
        assert picks == [0, 1, 2, 3, 0, 1]

    def test_urr_never_available_fails(self, bg_cndb):
        for node in bg_cndb.all_nodes():
            node.acquire()
        with pytest.raises(AllocationError):
            urr_sequence(bg_cndb).select(bg_cndb)

    def test_in_pset_confines_selection(self, bg_cndb):
        sequence = in_pset_sequence(bg_cndb, 1)
        picks = []
        for _ in range(3):
            node = sequence.select(bg_cndb)
            node.acquire()
            picks.append(node.index)
        assert picks == [8, 9, 10]

    def test_psetrr_spreads_over_psets(self, bg_cndb):
        machine = BlueGene()
        sequence = pset_round_robin_sequence(bg_cndb)
        picks = []
        for _ in range(5):
            node = sequence.select(bg_cndb)
            node.acquire()
            picks.append(machine.pset_of(node.index))
        assert picks == [0, 1, 2, 3, 0]


class TestSelectors:
    def test_naive_takes_next_available(self, bg_cndb):
        selector = NaiveSelector()
        first = selector.select(bg_cndb)
        first.acquire()
        second = selector.select(bg_cndb)
        assert (first.index, second.index) == (0, 1)

    def test_naive_advances_the_shared_cursor(self, be_cndb):
        # One cursor per CNDB: naive selection and urr() continue each
        # other's round-robin walk.
        picks = [NaiveSelector().select(be_cndb).index for _ in range(3)]
        assert picks == [0, 1, 2]
        assert urr_sequence(be_cndb).select(be_cndb).index == 3
        assert be_cndb.next_round_robin() == 0

    def test_naive_scans_the_whole_cluster(self, bg_cndb):
        # From any cursor position the scan wraps around to the one free node.
        for node in bg_cndb.all_nodes():
            if node.index != 2:
                node.acquire()
        for _ in range(5):
            bg_cndb.next_round_robin()
        assert NaiveSelector().select(bg_cndb).index == 2

    def test_naive_full_cluster_fails(self, be_cndb):
        # Linux nodes are never full, so test on a tiny BlueGene instead.
        cndb = ComputeNodeDatabase("bg", BlueGene().compute_nodes)
        for node in cndb.all_nodes():
            node.acquire()
        with pytest.raises(AllocationError):
            NaiveSelector().select(cndb)

    def test_knowledge_colocates_on_linux(self, be_cndb):
        selector = KnowledgeBasedSelector()
        first = selector.select(be_cndb)
        first.acquire()
        second = selector.select(be_cndb)
        assert second is first  # co-locate until saturation

    def test_knowledge_spreads_psets_on_bluegene(self, bg_cndb):
        machine = BlueGene()
        selector = KnowledgeBasedSelector()
        psets = []
        for _ in range(4):
            node = selector.select(bg_cndb)
            node.acquire()
            psets.append(machine.pset_of(node.index))
        assert psets == [0, 1, 2, 3]
