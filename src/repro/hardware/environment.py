"""The complete simulated LOFAR hardware environment.

:class:`Environment` assembles everything Figure 1 of the paper shows: a
Linux front-end cluster (where users and the client manager live), a Linux
back-end cluster (where sensor streams enter), and the BlueGene partition —
plus the simulated interconnects between them and the per-cluster compute
node databases.  One :class:`Environment` owns one
:class:`~repro.sim.core.Simulator`; a fresh environment is created per
measurement run so runs are independent.
"""

from __future__ import annotations

import functools
from typing import Dict, Optional, Tuple

from repro.hardware.bluegene import BlueGene, BlueGeneConfig
from repro.hardware.cndb import ComputeNodeDatabase
from repro.hardware.linux_cluster import LinuxCluster, LinuxClusterConfig
from repro.hardware.node import PPC440D, Node, NodeKind
from repro.net.channels import Channel, LatencyChannel, MpiChannel
from repro.net.ethernet import EthernetFabric, TcpStreamConnection
from repro.net.jitter import make_jitter
from repro.net.params import NetworkParams
from repro.net.torus import RouteTable, TorusNetwork
from repro.sim import Resource, Simulator, Store
from repro.util.errors import HardwareError
from repro.util.record import Frozen

#: Cluster names used throughout the paper's queries.
BLUEGENE = "bg"
BACKEND = "be"
FRONTEND = "fe"

#: The clusters every environment exposes, in paper order.  The SCSQL
#: compiler validates cluster names in queries against this tuple so that
#: compilation does not require a live :class:`Environment`.
DEFAULT_CLUSTERS = (FRONTEND, BACKEND, BLUEGENE)


class _TopologyMemo:
    """A config's topology key, kept by :func:`shared_template` as a
    one-item frozenset: it holds its hash, so later lookups with the same
    config object hash none of the key's seven records."""

    __slots__ = ("_topology",)


class EnvironmentConfig(Frozen, _TopologyMemo):
    """Shape and cost model of one simulated environment.

    Defaults match the paper's experimental set-up: a BlueGene partition
    with four psets/I-O nodes and a four-node back-end cluster (section 5:
    "In the current hardware configuration, we have only four I/O nodes and
    four nodes in the back-end cluster").
    """

    bluegene: BlueGeneConfig
    backend_nodes: int
    frontend_nodes: int
    params: NetworkParams
    seed: int
    __slots__ = ("bluegene", "backend_nodes", "frontend_nodes", "params", "seed")

    def __init__(self, bluegene: BlueGeneConfig = BlueGeneConfig(), backend_nodes: int = 4,
                 frontend_nodes: int = 2, params: Optional[NetworkParams] = None,
                 seed: int = 0) -> None:
        self._set_fields(bluegene, backend_nodes, frontend_nodes,
                         NetworkParams() if params is None else params, seed)

    def with_seed(self, seed: int) -> "EnvironmentConfig":
        """This config with only the seed replaced (topology untouched)."""
        return self.replace(seed=seed)


def _topology_key(config: EnvironmentConfig):
    """The seed-independent part of a config: what a template depends on."""
    return (config.bluegene, config.backend_nodes, config.frontend_nodes, config.params)


#: Per-node mutable status captured by a snapshot: (running_processes, failed).
_NodeStatus = Tuple[int, bool]


class TopologySnapshot(Frozen):
    """Frozen copy of a template's per-run mutable occupancy state.

    A template's expensive pieces (psets, CNDB node lists, the route memo)
    are immutable; what varies between runs is only the *occupancy*: the
    CNDB round-robin cursors and each node's ``running_processes`` /
    ``failed`` status.  A snapshot copies exactly that, so it stays valid
    no matter what later runs do to the template, and restoring it is a
    handful of integer writes — far cheaper than rebuilding a topology.

    Snapshots are bound to the topology they were taken from
    (:attr:`topology`); restoring one into a template of a different shape
    is rejected.
    """

    topology: tuple
    cursors: Tuple[Tuple[str, int], ...]
    node_status: Tuple[Tuple[str, Tuple[_NodeStatus, ...]], ...]
    io_status: Tuple[_NodeStatus, ...]
    __slots__ = ("topology", "cursors", "node_status", "io_status")

    def __init__(self, topology: tuple, cursors: Tuple[Tuple[str, int], ...],
                 node_status: Tuple[Tuple[str, Tuple[_NodeStatus, ...]], ...],
                 io_status: Tuple[_NodeStatus, ...]) -> None:
        self._set_fields(topology, cursors, node_status, io_status)


class EnvironmentTemplate:
    """Reusable, seed-independent topology of an :class:`Environment`.

    Building the BlueGene partition, the Linux clusters and the CNDBs (and
    warming the torus route memo) is the expensive part of environment
    construction and depends only on the topology fields of the config — not
    on the per-repeat seed.  A measurement sweep builds one template and
    hands it to each per-repeat :class:`Environment`, which then only
    creates the simulator, jitter, and fresh network instances.

    The shared pieces carry a little per-run mutable status
    (``Node.running_processes``, the CNDB round-robin cursors);
    :meth:`reset` returns them to the freshly-built state and is invoked by
    every :class:`Environment` instantiation, so repeats sharing a template
    are bit-identical to repeats building from scratch.  Templates therefore
    must not be shared by *concurrently live* environments within a process;
    the measurement harness uses environments strictly one at a time.
    """

    __slots__ = (
        "config", "bluegene", "backend", "frontend", "routes", "cndbs",
        "_pristine",
    )

    def __init__(self, config: EnvironmentConfig = EnvironmentConfig()):
        self.config = config
        self.bluegene = BlueGene(config.bluegene)
        self.backend = LinuxCluster(LinuxClusterConfig(BACKEND, config.backend_nodes))
        self.frontend = LinuxCluster(LinuxClusterConfig(FRONTEND, config.frontend_nodes))
        self.routes = RouteTable(self.bluegene)
        self.cndbs: Dict[str, ComputeNodeDatabase] = {
            BLUEGENE: ComputeNodeDatabase(BLUEGENE, self.bluegene.compute_nodes),
            BACKEND: ComputeNodeDatabase(BACKEND, self.backend.nodes),
            FRONTEND: ComputeNodeDatabase(FRONTEND, self.frontend.nodes),
        }
        # The freshly-built occupancy; reset() restores it, making reuse
        # bit-identical to building from scratch.
        self._pristine = self.snapshot()

    def matches(self, config: EnvironmentConfig) -> bool:
        """True if ``config`` describes the same topology as this template."""
        return _topology_key(config) == _topology_key(self.config)

    # ------------------------------------------------------------------
    # Lookup: what the placement walk asks of its CNDBs
    # ------------------------------------------------------------------
    def cluster_names(self):
        """The clusters of the topology, in paper order."""
        return DEFAULT_CLUSTERS

    def cndb(self, cluster: str) -> ComputeNodeDatabase:
        """The compute node database of ``cluster``."""
        try:
            return self.cndbs[cluster]
        except KeyError:
            raise HardwareError(
                f"unknown cluster {cluster!r}; expected one of {sorted(self.cndbs)}"
            ) from None

    # ------------------------------------------------------------------
    # Occupancy snapshot / restore / fork
    # ------------------------------------------------------------------
    def snapshot(self) -> TopologySnapshot:
        """Capture the current occupancy state as an immutable snapshot.

        Three callers: :meth:`fork`/:meth:`restore` (via the pristine
        snapshot), the sanitizer's ``SAN205`` pristine-occupancy check, and
        static verification, which walks a plan's placement on the real
        CNDBs between a ``snapshot()`` and a ``restore()``.
        """
        return TopologySnapshot(
            topology=_topology_key(self.config),
            cursors=tuple(
                (name, cndb._rr_cursor) for name, cndb in self.cndbs.items()
            ),
            node_status=tuple(
                (
                    name,
                    tuple(
                        (node.running_processes, node.failed)
                        for node in cndb._nodes
                    ),
                )
                for name, cndb in self.cndbs.items()
            ),
            io_status=tuple(
                (node.running_processes, node.failed)
                for node in self.bluegene.io_nodes
            ),
        )

    def restore(self, snapshot: Optional[TopologySnapshot] = None) -> None:
        """Write a snapshot's occupancy back into the shared topology.

        ``None`` restores the freshly-built (pristine) state.  Restoring a
        snapshot taken from a different topology raises
        :class:`~repro.util.errors.HardwareError`.
        """
        if snapshot is None:
            snapshot = self._pristine
        elif snapshot.topology != _topology_key(self.config):
            raise HardwareError(
                "topology snapshot does not belong to this template "
                f"(snapshot key {snapshot.topology!r})"
            )
        cursors = dict(snapshot.cursors)
        status = dict(snapshot.node_status)
        for name, cndb in self.cndbs.items():
            cndb._rr_cursor = cursors[name]
            for node, (running, failed) in zip(cndb._nodes, status[name]):
                node.running_processes = running
                node.failed = failed
        for node, (running, failed) in zip(
            self.bluegene.io_nodes, snapshot.io_status
        ):
            node.running_processes = running
            node.failed = failed

    def reset(self) -> None:
        """Return the shared mutable status to the freshly-built state."""
        self.restore(self._pristine)

    def fork(self, seed: Optional[int] = None, obs=None) -> "Environment":
        """A fresh :class:`Environment` on this already-built topology.

        The fork reuses the template's psets, CNDBs, and warmed route memo;
        only the simulator, jitter, and network instances are created anew.
        ``seed`` overrides the per-run seed (default: the template config's
        seed); ``obs`` attaches instrumentation to the fork's simulator.
        A fork starts pristine.  Forks of one template must be used
        sequentially — each fork restores the shared occupancy, so starting
        a new fork invalidates its live siblings.
        """
        config = self.config if seed is None else self.config.with_seed(seed)
        return Environment(config, obs=obs, template=self)


#: Templates one process keeps, least recently used first out: ``python -m
#: repro all`` builds 6 distinct topologies, the full bench gate 2.
TEMPLATE_CACHE_SIZE = 8


def shared_template(config: EnvironmentConfig) -> EnvironmentTemplate:
    """A per-process cached :class:`EnvironmentTemplate` for ``config``'s
    topology (the template carries seed 0; a fork names its own seed)."""
    topology = getattr(config, "_topology", None)
    if topology is None:
        topology = frozenset((_topology_key(config),))
        object.__setattr__(config, "_topology", topology)
    return _template(topology)


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def _template(topology: frozenset) -> EnvironmentTemplate:
    ((bluegene, backend_nodes, frontend_nodes, params),) = topology
    return EnvironmentTemplate(EnvironmentConfig(bluegene, backend_nodes, frontend_nodes, params))


class Environment:
    """The heterogeneous parallel computing environment under measurement.

    Pass an :class:`~repro.obs.Instrumentation` as ``obs`` to trace and
    meter everything this environment's simulator runs; by default the
    shared null hub is used and observability costs nothing.

    Pass an :class:`EnvironmentTemplate` as ``template`` to reuse an
    already-built topology (psets, CNDBs, route memo) across repeats; the
    template is reset to its freshly-built state, so results are identical
    to building from scratch.  :meth:`EnvironmentTemplate.fork` is the
    ergonomic spelling of that reuse.
    """

    def __init__(
        self,
        config: EnvironmentConfig = EnvironmentConfig(),
        obs=None,
        template: "EnvironmentTemplate | None" = None,
    ):
        if template is None:
            template = EnvironmentTemplate(config)
        elif not template.matches(config):
            raise HardwareError(
                f"environment template built for {template.config!r} "
                f"does not match config {config!r}"
            )
        else:
            template.restore()  # pristine
        self.config = config
        self.template = template
        self.sim = Simulator(obs=obs)
        self.obs = self.sim.obs
        self.jitter = make_jitter(magnitude=config.params.jitter, seed=config.seed)
        self.bluegene = template.bluegene
        self.backend = template.backend
        self.frontend = template.frontend
        self.torus = TorusNetwork(
            self.sim, self.bluegene, config.params.torus, self.jitter,
            routes=template.routes,
        )
        self.fabric = EthernetFabric(
            self.sim, self.bluegene, self.torus, config.params, self.jitter
        )
        self.cndbs: Dict[str, ComputeNodeDatabase] = template.cndbs
        self._cpus: Dict[str, Resource] = {}

    @property
    def params(self) -> NetworkParams:
        return self.config.params

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def cluster_names(self):
        """The clusters of the environment, in paper order."""
        return self.template.cluster_names()

    def cndb(self, cluster: str) -> ComputeNodeDatabase:
        """The compute node database of ``cluster`` (the template's)."""
        return self.template.cndb(cluster)

    def node(self, cluster: str, index: int) -> Node:
        """The node ``index`` of ``cluster``."""
        return self.cndb(cluster).node(index)

    # ------------------------------------------------------------------
    # Compute CPUs
    # ------------------------------------------------------------------
    def cpu(self, node: Node) -> Resource:
        """The compute-CPU resource of ``node``, shared by its RPs.

        BlueGene compute nodes expose a single compute CPU — "normally one
        is used for computation and the other one for communication" (the
        communication co-processor is modelled separately in the torus).
        Linux nodes expose both cores.
        """
        if node.node_id not in self._cpus:
            capacity = 1 if node.kind is NodeKind.BG_COMPUTE else node.cpu.cores
            self._cpus[node.node_id] = Resource(
                self.sim, capacity=capacity, name=f"cpu[{node.node_id}]"
            )
        return self._cpus[node.node_id]

    def cpu_time_scale(self, node: Node) -> float:
        """Multiplier converting baseline (PPC440) CPU costs to this node.

        Cost-model rates in :class:`~repro.net.params.CpuCostParams` are
        calibrated for the BlueGene's 700 MHz PowerPC 440d; faster CPUs
        (the 2.2 GHz PPC970 of the Linux clusters) scale times down by
        clock ratio.
        """
        return PPC440D.clock_hz / node.cpu.clock_hz

    # ------------------------------------------------------------------
    # Channel selection (paper section 2.3 driver rule)
    # ------------------------------------------------------------------
    def open_channel(
        self, source: Node, destination: Node, deliver: Store, stream_id: str
    ) -> Channel:
        """Create the right stream carrier for a (source, destination) pair.

        MPI inside the BlueGene, TCP for back-end -> BlueGene ingress, and
        an uncontended latency path for the remaining low-volume pairings.
        """
        if source.cluster == BLUEGENE and destination.cluster == BLUEGENE:
            return MpiChannel(self.sim, source, destination, deliver, self.torus, stream_id)
        if source.cluster == BACKEND and destination.cluster == BLUEGENE:
            return TcpStreamConnection(self.fabric, source, destination, deliver, stream_id)
        return LatencyChannel(self.sim, source, destination, deliver, self.params, self.jitter)

    def __repr__(self) -> str:
        return (
            f"<Environment bg={self.bluegene.config.torus_shape} "
            f"be={self.config.backend_nodes} fe={self.config.frontend_nodes} "
            f"seed={self.config.seed}>"
        )
