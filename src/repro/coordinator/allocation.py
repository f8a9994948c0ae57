"""Allocation sequences and node-selection algorithms.

The paper's node placement (sections 2.2 and 2.4):

* Normally "a naive node selection algorithm is used, returning the next
  available node".
* "Optionally, the SCSQL user can constrain the allowed compute nodes ...
  by specifying a node allocation query ... This query returns a stream of
  allowable compute nodes in preferred allocation order, called the
  allocation sequence. ... The node selection algorithm will choose the
  first available node in the allocation sequence.  (In case the stream
  contains no available node, the query will fail.)"

An :class:`AllocationSequence` is consumed statefully: a ``spv()`` over n
subqueries hands the *same* sequence to n placements, so ``urr('be')``
lands successive RPs on successive cluster nodes while the constant
sequence ``1`` lands them all on node 1.

The module also provides the :class:`KnowledgeBasedSelector`, the improved
automatic policy the paper's conclusions call for (used by the ablation
benchmark): co-locate back-end senders, spread BlueGene receivers over
psets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Tuple, Union

from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.node import Node
from repro.util.errors import AllocationError, HardwareError
from repro.util.record import Frozen, setters

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (environment -> cndb)
    from repro.hardware.environment import Environment


class AllocationSequence:
    """A stateful stream of preferred node numbers for RP placement."""

    def __init__(self, source: Union[int, Iterable[int], Iterator[int]]):
        self._constant: Optional[int] = None
        self._iterator: Optional[Iterator[int]] = None
        if isinstance(source, bool):
            raise AllocationError(f"invalid allocation sequence {source!r}")
        if isinstance(source, int):
            self._constant = source
        else:
            self._iterator = iter(source)

    @property
    def constant_node(self) -> Optional[int]:
        """The single node number of a constant sequence (None otherwise)."""
        return self._constant

    def select(self, cndb: ComputeNodeDatabase) -> Node:
        """The first available node of the sequence (consumes the stream).

        Raises:
            AllocationError: When the sequence contains no available node.
        """
        if self._constant is not None:
            node = self._lookup(cndb, self._constant)
            if not node.is_available:
                raise AllocationError(
                    f"explicitly selected node {self._constant} of cluster "
                    f"{cndb.cluster!r} is busy"
                )
            return node
        assert self._iterator is not None
        visited = set()
        while len(visited) < cndb.num_nodes():
            try:
                index = next(self._iterator)
            except StopIteration:
                break
            node = self._lookup(cndb, index)
            if node.is_available:
                return node
            visited.add(index)
        raise AllocationError(
            f"allocation sequence for cluster {cndb.cluster!r} contains no available node"
        )

    @staticmethod
    def _lookup(cndb: ComputeNodeDatabase, index: int) -> Node:
        try:
            return cndb.node(index)
        except HardwareError as exc:
            raise AllocationError(
                f"allocation sequence names node {index}, which does not exist "
                f"in cluster {cndb.cluster!r}"
            ) from exc


def urr_sequence(cndb: ComputeNodeDatabase) -> AllocationSequence:
    """``urr(cl)``: endless round-robin over the cluster's nodes."""

    def stream() -> Iterator[int]:
        while True:
            yield cndb.next_round_robin()

    return AllocationSequence(stream())


def in_pset_sequence(cndb: ComputeNodeDatabase, pset_id: int) -> AllocationSequence:
    """``inPset(k)``: the compute nodes of pset ``k``, in order."""
    return AllocationSequence(cndb.nodes_in_pset(pset_id))


def pset_round_robin_sequence(cndb: ComputeNodeDatabase) -> AllocationSequence:
    """``psetrr()``: successive nodes belong to successive psets."""
    return AllocationSequence(cndb.pset_round_robin())


# ----------------------------------------------------------------------
# Environment-independent allocation specs (the compiled form)
# ----------------------------------------------------------------------
class AllocationSpec(Frozen):
    """Symbolic, picklable description of an allocation sequence.

    The SCSQL compiler reduces the third argument of ``sp()``/``spv()`` to
    a spec *without* consulting a live environment; a
    :class:`~repro.coordinator.deployer.Deployer` resolves the spec against
    the target environment's CNDBs at deploy time.  This is what makes a
    compiled :class:`~repro.scsql.plan.DeploymentPlan` environment-
    independent: the same plan deploys onto any compatible environment.

    Specs compiled from one ``sp()``/``spv()`` call site are a single
    shared instance; the deployer resolves each *instance* once per
    deployment, preserving the paper's semantics that an ``spv()`` over n
    subqueries consumes one shared stateful sequence.
    """

    __slots__ = ()

    def resolve(self, env: "Environment") -> AllocationSequence:
        """Materialize the stateful sequence against ``env``'s CNDBs."""
        raise NotImplementedError

    @property
    def constant_node(self) -> Optional[int]:
        """The single node number of a constant spec (None otherwise)."""
        return None


class ExplicitNodesSpec(AllocationSpec):
    """A literal node number or bag of node numbers (e.g. ``'bg', 0``)."""

    nodes: Tuple[int, ...]
    __slots__ = ("nodes",)

    def __init__(self, nodes: Tuple[int, ...]) -> None:
        _explicit_nodes_spec_nodes(self, nodes)
        if not self.nodes:
            raise AllocationError("empty explicit allocation sequence")

    def resolve(self, env: "Environment") -> AllocationSequence:
        if len(self.nodes) == 1:
            return AllocationSequence(self.nodes[0])
        return AllocationSequence(list(self.nodes))

    @property
    def constant_node(self) -> Optional[int]:
        return self.nodes[0] if len(self.nodes) == 1 else None


_explicit_nodes_spec_nodes, = setters(ExplicitNodesSpec)


class UrrSpec(AllocationSpec):
    """``urr(cl)``: round-robin over the named cluster's nodes."""

    cluster: str
    __slots__ = ("cluster",)

    def __init__(self, cluster: str) -> None:
        self._set_fields(cluster)

    def resolve(self, env: "Environment") -> AllocationSequence:
        return urr_sequence(env.cndb(self.cluster))


class InPsetSpec(AllocationSpec):
    """``inPset(k)`` against the stream process's target cluster."""

    cluster: str
    pset_id: int
    __slots__ = ("cluster", "pset_id")

    def __init__(self, cluster: str, pset_id: int) -> None:
        self._set_fields(cluster, pset_id)

    def resolve(self, env: "Environment") -> AllocationSequence:
        return in_pset_sequence(env.cndb(self.cluster), self.pset_id)


class PsetRoundRobinSpec(AllocationSpec):
    """``psetrr()`` against the stream process's target cluster."""

    cluster: str
    __slots__ = ("cluster",)

    def __init__(self, cluster: str) -> None:
        self._set_fields(cluster)

    def resolve(self, env: "Environment") -> AllocationSequence:
        return pset_round_robin_sequence(env.cndb(self.cluster))


AllocationDirective = Union[AllocationSpec, AllocationSequence]
"""What :class:`~repro.coordinator.graph.SPDef.allocation` may hold: the
compiler emits symbolic specs; deployers (and tests building graphs by
hand) may also pin live sequences directly."""


def constant_node_of(allocation: Optional[AllocationDirective]) -> Optional[int]:
    """The pinned node number of a constant allocation, spec or sequence."""
    if allocation is None:
        return None
    return allocation.constant_node


class NodeSelector:
    """Strategy choosing a node when no allocation sequence constrains it."""

    name = "selector"

    def select(self, cndb: ComputeNodeDatabase) -> Node:
        raise NotImplementedError


class NaiveSelector(NodeSelector):
    """The paper's default: "returning the next available node"."""

    name = "naive"

    def select(self, cndb: ComputeNodeDatabase) -> Node:
        for _ in range(cndb.num_nodes()):
            node = cndb.node(cndb.next_round_robin())
            if node.is_available:
                return node
        raise AllocationError(f"no available node in cluster {cndb.cluster!r}")


class KnowledgeBasedSelector(NodeSelector):
    """Placement informed by the paper's measurement conclusions.

    * On Linux clusters, **co-locate**: "the node selection algorithm
      should attempt to co-locate back-end RPs to the same compute node
      until saturation" (observation 3) — pick the available node already
      running the most RPs.
    * On the BlueGene, **spread psets**: use many I/O nodes (observation 1)
      — pick an available node in the pset with the fewest placed RPs.
    """

    name = "knowledge"

    def select(self, cndb: ComputeNodeDatabase) -> Node:
        available = cndb.available_nodes()
        if not available:
            raise AllocationError(f"no available node in cluster {cndb.cluster!r}")
        if available[0].pset_id is None:
            # Linux cluster: co-locate until saturation.
            return max(available, key=lambda n: (n.running_processes, -n.index))
        # BlueGene: spread over psets (fewest busy RPs per pset first).
        load = {}
        for node in cndb.all_nodes():
            load[node.pset_id] = load.get(node.pset_id, 0) + node.running_processes
        return min(available, key=lambda n: (load[n.pset_id], n.index))
