"""Switched Gigabit Ethernet, TCP stream carriers, and the BlueGene ingress.

This substrate is behind Figure 15 (Queries 1-6).  The inbound path of one
TCP stream buffer is::

    back-end host NIC --> switch uplink --> I/O-node proxy --> tree network
        --> receiving compute node's co-processor --> receive buffer

Mechanisms modelled, each tied to a paper observation (section 3.2):

* The **switch uplink** into the BlueGene I/O drawer is a single 1 Gbps
  port shared by all inbound streams; the measured peak of ~920 Mbps
  (observation 3) is this port minus protocol overhead.
* **Coordination at the ingress**: the I/O-node TCP proxies degrade when the
  ingress as a whole talks to many *distinct external hosts* — "this
  indicates coordination problems in the I/O node when communicating with
  many outside nodes" (observation 3; also observation 4, Query 1 vs 2).
  Efficiency = 1 / (1 + peer_coordination * (hosts - 1)) applied to proxy
  service times.
* **I/O-node sharing**: an I/O node forwarding several concurrent
  connections slows down (observation 5, the Query 5 dip at n=5 when only
  four I/O nodes exist): proxy rate divided by
  (1 + connection_sharing_penalty * (connections - 1)).
* The receiving compute node pays the same single-threaded co-processor
  source-switch penalty as intra-torus traffic when it merges several
  streams (shared with :mod:`repro.net.torus`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.hardware.bluegene import BlueGene
from repro.hardware.node import Node, NodeKind
from repro.net.channels import Channel
from repro.net.jitter import Jitter
from repro.net.message import WireBuffer
from repro.net.params import NetworkParams
from repro.net.torus import TorusNetwork
from repro.sim import Resource, Simulator, Store, Timeout, TokenPool
from repro.util.errors import NetworkError


class EthernetFabric:
    """The switched GigE fabric between Linux clusters and the BlueGene."""

    def __init__(
        self,
        sim: Simulator,
        bluegene: BlueGene,
        torus: TorusNetwork,
        params: NetworkParams = NetworkParams(),
        jitter: Optional[Jitter] = None,
    ):
        self.sim = sim
        self.bluegene = bluegene
        self.torus = torus
        self.params = params
        self.jitter = jitter or Jitter()
        self._nics: Dict[str, Resource] = {}
        self._uplink = Resource(sim, capacity=1, name="switch-uplink[be->bg]")
        self._uplink_slowdown = 1.0
        self._io_proxies: Dict[int, Resource] = {}
        self._tree_links: Dict[int, Resource] = {}
        # Connection registry driving the coordination penalties.
        self._connections: Set[Tuple[str, int, str]] = set()  # (host, io, stream)
        self._hosts: Dict[str, int] = {}  # host -> open connection count
        self._io_connections: Dict[int, int] = {}  # io index -> connection count
        self._io_hosts: Dict[int, Dict[str, int]] = {}  # io index -> host -> count
        # Statistics for experiment reports.
        self.bytes_ingress = 0

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def nic(self, host: Node) -> Resource:
        """The NIC resource of a Linux cluster host."""
        if host.kind is not NodeKind.LINUX:
            raise NetworkError(f"{host.node_id} is not a Linux cluster host")
        if host.node_id not in self._nics:
            self._nics[host.node_id] = Resource(
                self.sim, capacity=1, name=f"nic[{host.node_id}]"
            )
        return self._nics[host.node_id]

    def io_proxy(self, io_index: int) -> Resource:
        """The TCP proxy resource of I/O node ``io_index``."""
        if not 0 <= io_index < len(self.bluegene.io_nodes):
            raise NetworkError(f"no I/O node {io_index}")
        if io_index not in self._io_proxies:
            self._io_proxies[io_index] = Resource(
                self.sim, capacity=1, name=f"io-proxy[{io_index}]"
            )
        return self._io_proxies[io_index]

    def degrade_uplink(self, factor: float) -> None:
        """Degrade the shared be->bg switch uplink by ``factor``.

        The fault-injection model of a flapping ingress switch port: the
        uplink's effective rate is divided by ``factor`` (>= 1) for every
        buffer forwarded from now on.
        """
        if factor < 1.0:
            raise NetworkError(f"uplink slowdown factor must be >= 1, got {factor}")
        self._uplink_slowdown = float(factor)

    def restore_uplink(self) -> None:
        """Heal the shared uplink (reset the degradation factor to 1.0)."""
        self._uplink_slowdown = 1.0

    def tree_link(self, pset_id: int) -> Resource:
        """The tree-network link from I/O node into pset ``pset_id``."""
        if pset_id not in self._tree_links:
            self._tree_links[pset_id] = Resource(
                self.sim, capacity=1, name=f"tree[{pset_id}]"
            )
        return self._tree_links[pset_id]

    # ------------------------------------------------------------------
    # Coordination state
    # ------------------------------------------------------------------
    @property
    def distinct_external_hosts(self) -> int:
        """Number of distinct outside hosts currently feeding the ingress."""
        return len(self._hosts)

    def io_connection_count(self, io_index: int) -> int:
        """Open inbound connections currently forwarded by one I/O node."""
        return self._io_connections.get(io_index, 0)

    def io_host_count(self, io_index: int) -> int:
        """Distinct external hosts currently connected to one I/O node."""
        return len(self._io_hosts.get(io_index, {}))

    def _uplink_efficiency(self) -> float:
        """Shared-uplink goodput factor given the global distinct-host count."""
        hosts = self.distinct_external_hosts
        if hosts <= 1:
            return 1.0
        return 1.0 / (
            1.0 + self.params.io_node.uplink_host_coordination * (hosts - 1)
        )

    def _io_service_rate(self, io_index: int) -> float:
        """Effective proxy rate of one I/O node under sharing + host penalties."""
        connections = max(1, self.io_connection_count(io_index))
        sharing = 1.0 + self.params.io_node.connection_sharing_penalty * (connections - 1)
        hosts = max(1, self.io_host_count(io_index))
        coordination = 1.0 + self.params.io_node.peer_coordination * (hosts - 1)
        return self.params.io_node.proxy_rate / (sharing * coordination)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def register_connection(self, host: Node, io_index: int, stream_id: str) -> None:
        """Record an open inbound TCP connection (host -> I/O node)."""
        key = (host.node_id, io_index, stream_id)
        if key in self._connections:
            raise NetworkError(f"connection {key} already registered")
        self._connections.add(key)
        self._hosts[host.node_id] = self._hosts.get(host.node_id, 0) + 1
        self._io_connections[io_index] = self._io_connections.get(io_index, 0) + 1
        per_io = self._io_hosts.setdefault(io_index, {})
        per_io[host.node_id] = per_io.get(host.node_id, 0) + 1
        if self.sim.obs.enabled:
            self._record_connection_gauges(io_index)

    def unregister_connection(self, host: Node, io_index: int, stream_id: str) -> None:
        """Record the close of an inbound TCP connection."""
        key = (host.node_id, io_index, stream_id)
        if key not in self._connections:
            raise NetworkError(f"connection {key} is not registered")
        self._connections.remove(key)
        self._hosts[host.node_id] -= 1
        if self._hosts[host.node_id] == 0:
            del self._hosts[host.node_id]
        self._io_connections[io_index] -= 1
        per_io = self._io_hosts[io_index]
        per_io[host.node_id] -= 1
        if per_io[host.node_id] == 0:
            del per_io[host.node_id]
        if self.sim.obs.enabled:
            self._record_connection_gauges(io_index)

    def _record_connection_gauges(self, io_index: int) -> None:
        """Gauge the ingress coordination state (peaks drive the Q5 dip).

        ``ethernet.io_connections[i]`` peaking above 1 is the paper's
        observation 5: compute nodes sharing one of the four I/O nodes.
        """
        obs = self.sim.obs
        obs.record_level(
            f"ethernet.io_connections[{io_index}]", self.io_connection_count(io_index)
        )
        obs.record_level(
            f"ethernet.io_hosts[{io_index}]", self.io_host_count(io_index)
        )
        obs.record_level("ethernet.ingress_hosts", self.distinct_external_hosts)


class TcpStreamConnection(Channel):
    """One inbound TCP stream: back-end Linux host -> BlueGene compute node."""

    def __init__(
        self,
        fabric: EthernetFabric,
        source: Node,
        destination: Node,
        deliver: Store,
        stream_id: str,
    ):
        if source.kind is not NodeKind.LINUX or destination.kind is not NodeKind.BG_COMPUTE:
            raise NetworkError(
                "a TCP stream carries Linux-host -> BlueGene-compute traffic; "
                f"got {source.node_id} -> {destination.node_id}"
            )
        super().__init__(fabric.sim, source, destination, deliver)
        self.fabric = fabric
        self.dst_compute_index = destination.index
        self.stream_id = stream_id
        self.io_index = fabric.bluegene.pset_of(destination.index)
        self._open = False
        self._counters = None  # obs counters, bound by the first observed buffer
        self._window = TokenPool(
            fabric.sim,
            capacity=fabric.params.tcp.window_segments,
            name=f"tcp-window[{stream_id}]",
        )

    def open(self):
        """Establish the connection (generator; charges handshake cost)."""
        if self._open:
            raise NetworkError(f"connection {self.stream_id!r} already open")
        self.fabric.register_connection(self.source, self.io_index, self.stream_id)
        self.fabric.torus.register_stream(self.dst_compute_index, self.stream_id)
        self._open = True
        for _ in range(self.fabric.params.tcp.window_segments):
            self._window.put(None)
        yield self.fabric.sim.timeout(
            self.fabric.jitter.apply(self.fabric.params.tcp.connection_setup)
        )

    def close(self):
        """Tear the connection down once every in-flight buffer is delivered.

        Generator: blocks until the flow-control window refills, so the
        connection's coordination state persists exactly as long as its
        traffic occupies the ingress.
        """
        if not self._open:
            return
        for _ in range(self.fabric.params.tcp.window_segments):
            yield self._window.get()
        self.fabric.unregister_connection(self.source, self.io_index, self.stream_id)
        self.fabric.torus.unregister_stream(self.dst_compute_index, self.stream_id)
        self._open = False

    def abort(self) -> None:
        """Drop the connection's coordination state without draining.

        For terminated queries: the paired sender process is gone, so the
        window will never refill — but the connection must stop counting
        against the ingress host/proxy coordination penalties, or every
        later deployment pays for a stream that no longer exists.
        """
        if not self._open:
            return
        self.fabric.unregister_connection(self.source, self.io_index, self.stream_id)
        self.fabric.torus.unregister_stream(self.dst_compute_index, self.stream_id)
        self._open = False

    @property
    def preferred_buffer_bytes(self) -> Optional[int]:
        return self.fabric.params.tcp.segment_bytes

    # ------------------------------------------------------------------
    def send(self, buffer: WireBuffer):
        """Send one buffer (generator; returns at sender local completion)."""
        if not self._open:
            raise NetworkError(f"send on closed connection {self.stream_id!r}")
        fabric = self.fabric
        params = fabric.params
        wire_bytes = buffer.nbytes * (1.0 + params.tcp.header_overhead)
        segments = max(1, -(-buffer.nbytes // params.tcp.segment_bytes))
        flows = fabric.sim.obs.flows
        # Flow control: wait for a window slot before occupying the NIC.
        slot = self._window.get()
        # Here and below: an event that comes back processed was granted
        # synchronously (sim.resources); there is nothing to wait for.
        if slot.callbacks is not None:
            yield slot
        if flows.enabled:
            flows.hop(buffer, "tcp.window", fabric.sim._now)
        # Sending host: socket/kernel cost plus NIC serialization.
        nic = fabric.nic(self.source)
        nic_req = nic.request()
        try:
            if nic_req.callbacks is not None:
                yield nic_req
            cost = (
                segments * params.tcp.per_segment_overhead
                + wire_bytes / params.ethernet.nic_rate
            )
            cost = fabric.jitter.apply(cost)
            yield Timeout(fabric.sim, cost)
        finally:
            nic.release(nic_req)
        if flows.enabled:
            flows.hop(buffer, "eth.nic", fabric.sim._now, resource=nic.name, wire=cost)
        fabric.bytes_ingress += buffer.nbytes
        obs = fabric.sim.obs
        if obs.enabled:
            counters = self._counters
            if counters is None:
                counters = self._counters = [obs.metrics.counter(name) for name in (
                    "ethernet.ingress_bytes", "ethernet.wire_bytes",
                    f"stream.tcp_bytes[{self.stream_id}]")]
            counters[0].value += buffer.nbytes
            counters[1].value += wire_bytes
            counters[2].value += buffer.nbytes
        # Started on an urgent event, not inline: it opens with a request
        # and a draw from the shared jitter, whose order is physics.
        fabric.sim.detach(self._forward(buffer, wire_bytes))

    def _forward(self, buffer: WireBuffer, wire_bytes: float):
        """The buffer past the sending host: the shared switch uplink, the
        I/O-node proxy, the tree network into the pset, receive processing
        on the destination compute node (shared with the torus), then one
        window slot back.  Releases are explicit, as in the torus's."""
        fabric = self.fabric
        params = fabric.params
        sim = fabric.sim
        flows = sim.obs.flows
        # Shared switch uplink into the BlueGene I/O drawer; goodput shrinks
        # with the number of distinct external hosts on the ingress.
        uplink = fabric._uplink
        req = uplink.request()
        if req.callbacks is not None:
            yield req
        rate = params.ethernet.uplink_rate * fabric._uplink_efficiency() / fabric._uplink_slowdown
        cost = fabric.jitter.apply(params.ethernet.switch_latency + wire_bytes / rate)
        yield Timeout(sim, cost)
        uplink.release(req)
        if flows.enabled:
            flows.hop(buffer, "eth.uplink", sim._now, resource=uplink.name, wire=cost)
        # I/O-node TCP proxy: service rate shrinks with connection sharing
        # and with the distinct hosts connected to this I/O node.
        proxy = fabric.io_proxy(self.io_index)
        req = proxy.request()
        if req.callbacks is not None:
            yield req
        rate = fabric._io_service_rate(self.io_index)
        cost = fabric.jitter.apply(params.io_node.per_buffer_overhead + wire_bytes / rate)
        yield Timeout(sim, cost)
        proxy.release(req)
        if flows.enabled:
            flows.hop(buffer, "eth.ioproxy", sim._now, resource=proxy.name, processing=cost)
        # Tree network from the I/O node into its pset.
        tree = fabric.tree_link(self.io_index)
        req = tree.request()
        if req.callbacks is not None:
            yield req
        cost = fabric.jitter.apply(buffer.nbytes / params.io_node.tree_rate)
        yield Timeout(sim, cost)
        tree.release(req)
        if flows.enabled:
            flows.hop(buffer, "eth.tree", sim._now, resource=tree.name, wire=cost)
        # Receive processing on the destination compute node's co-processor:
        # the CNK socket path is slow (compute_receive_rate) and pays the
        # same source-switch penalty as torus traffic when merging streams.
        yield from fabric.torus.receive(
            buffer, self.dst_compute_index,
            buffer.nbytes / params.io_node.compute_receive_rate if not buffer.eos else 0.0,
            self.deliver,
        )
        # End-to-end delivery acknowledged: reopen one window slot; nothing
        # waits on it.
        self._window.put(None)
