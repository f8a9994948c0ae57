"""The compute node database (CNDB).

Each cluster coordinator "maintains an internal compute node database (CNDB)
containing the properties and status of the possibly thousands of compute
nodes in its cluster" (paper section 2.2).  The node-selection algorithm and
the SCSQL allocation-sequence functions (``urr``, ``inPset``, ``psetrr``)
are all queries against this database.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hardware.node import Node, NodeKind
from repro.util.errors import HardwareError


class ComputeNodeDatabase:
    """Properties and live status of the compute nodes of one cluster."""

    def __init__(self, cluster: str, nodes: Sequence[Node]):
        if not nodes:
            raise HardwareError(f"CNDB for {cluster!r} needs at least one node")
        self.cluster = cluster
        self._nodes: List[Node] = list(nodes)
        # index -> node; on a duplicate index the first registered wins.
        self._by_index: Dict[int, Node] = {}
        for node in self._nodes:
            self._by_index.setdefault(node.index, node)
        self._rr_cursor = 0

    # ------------------------------------------------------------------
    # Plain lookups
    # ------------------------------------------------------------------
    def all_nodes(self) -> List[Node]:
        """Every node registered in this CNDB, in enumeration order."""
        return list(self._nodes)

    def node(self, index: int) -> Node:
        """The node with cluster-local enumeration number ``index``."""
        try:
            return self._by_index[index]
        except (KeyError, TypeError):  # unknown, or not even hashable
            raise HardwareError(f"CNDB {self.cluster!r} has no node {index}") from None

    def available_nodes(self) -> List[Node]:
        """Nodes that can accept another running process right now."""
        return [n for n in self._nodes if n.is_available]

    def num_nodes(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    # Allocation-sequence queries (paper section 2.4 / 3.2)
    # ------------------------------------------------------------------
    def next_round_robin(self) -> int:
        """The next node number in round-robin order; advances the cursor.

        This is one step of the ``urr(cl)`` allocation stream: successive
        calls walk the cluster's nodes cyclically, so successive stream
        processes land on successive nodes.
        """
        node = self._nodes[self._rr_cursor % len(self._nodes)]
        self._rr_cursor = (self._rr_cursor + 1) % len(self._nodes)
        return node.index

    def nodes_in_pset(self, pset_id: int) -> List[int]:
        """Node numbers belonging to pset ``pset_id`` — the ``inPset(k)`` function."""
        members = [n.index for n in self._nodes if n.pset_id == pset_id]
        if not members:
            raise HardwareError(f"CNDB {self.cluster!r} has no pset {pset_id}")
        return members

    def pset_round_robin(self) -> List[int]:
        """Node numbers where each successive node is in a new pset — ``psetrr()``.

        Produces node numbers cycling over psets: the first node of pset 0,
        the first of pset 1, ..., then the second node of pset 0, and so on.
        Compute nodes in successive positions therefore use different I/O
        nodes, parallelizing inbound communication (paper, Query 5/6).
        """
        psets: dict = {}
        for node in self._nodes:
            if node.pset_id is None:
                raise HardwareError(
                    f"node {node.node_id} has no pset; psetrr() requires a BlueGene CNDB"
                )
            psets.setdefault(node.pset_id, []).append(node.index)
        ordered_psets = [psets[k] for k in sorted(psets)]
        sequence: List[int] = []
        depth = max(len(members) for members in ordered_psets)
        for position in range(depth):
            for members in ordered_psets:
                if position < len(members):
                    sequence.append(members[position])
        return sequence

    def __repr__(self) -> str:
        kinds = {k: sum(1 for n in self._nodes if n.kind is k) for k in NodeKind}
        summary = ", ".join(f"{v} {k.value}" for k, v in kinds.items() if v)
        return f"<CNDB {self.cluster!r}: {summary}>"
