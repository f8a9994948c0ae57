"""Uniform channel abstraction over the concrete network models.

The stream engine's sender drivers talk to a :class:`Channel`; the concrete
subclass is chosen from the endpoints' clusters, mirroring the paper's
driver selection rule (section 2.3): "MPI is always used inside the
BlueGene as that is the only allowed protocol, while TCP is always used
when communicating between clusters."

* :class:`MpiChannel` — both endpoints on BlueGene compute nodes: the torus.
* :class:`TcpChannel` — back-end Linux host into a BlueGene compute node:
  the full Ethernet/I-O-node ingress path.
* :class:`LatencyChannel` — every other pairing (result trickles to the
  front-end, intra-Linux-cluster edges, registration traffic).  These paths
  carry negligible volume in all of the paper's experiments ("only one
  number is transmitted from b to the client manager"), so they are
  modelled as an uncontended latency + serialization delay.

Each channel delivers :class:`~repro.net.message.WireBuffer` objects into a
destination :class:`~repro.sim.resources.Store` owned by the receiving
driver; a bounded store gives back-pressure.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.node import Node, NodeKind
from repro.net.ethernet import EthernetFabric, TcpStreamConnection
from repro.net.jitter import Jitter
from repro.net.message import WireBuffer
from repro.net.params import NetworkParams
from repro.net.torus import TorusNetwork
from repro.sim import Simulator, Store
from repro.util.errors import NetworkError


class Channel:
    """One directed stream carrier between two nodes."""

    def __init__(self, sim: Simulator, source: Node, destination: Node, deliver: Store):
        self.sim = sim
        self.source = source
        self.destination = destination
        self.deliver = deliver

    def open(self):
        """Generator establishing the channel (may cost simulated time)."""
        return
        yield  # pragma: no cover - makes this a generator

    def send(self, buffer: WireBuffer):
        """Generator sending one buffer (returns at local completion)."""
        raise NotImplementedError

    def close(self):
        """Generator releasing connection state (may drain in-flight data)."""
        return
        yield  # pragma: no cover - makes this a generator

    def abort(self) -> None:
        """Release connection state immediately, without draining.

        The teardown path for killed queries: ``close`` is a generator that
        may block on in-flight traffic, but a terminated deployment has no
        process left to run it — so the carrier must drop its registry
        state (coordination penalties, stream bookkeeping) synchronously.
        """

    @property
    def preferred_buffer_bytes(self) -> Optional[int]:
        """Carrier-imposed send-buffer size, or None when configurable.

        TCP streams rely on "the buffering of the TCP stack" (paper section
        3.2), so their flush size is the TCP segment size rather than the
        query's MPI buffer-size setting.
        """
        return None


class MpiChannel(Channel):
    """Intra-BlueGene stream over the torus (the only allowed protocol)."""

    def __init__(
        self,
        sim: Simulator,
        source: Node,
        destination: Node,
        deliver: Store,
        torus: TorusNetwork,
        stream_id: Optional[str] = None,
    ):
        if source.kind is not NodeKind.BG_COMPUTE or destination.kind is not NodeKind.BG_COMPUTE:
            raise NetworkError("MpiChannel endpoints must be BlueGene compute nodes")
        super().__init__(sim, source, destination, deliver)
        self.torus = torus
        # Registering under the id the buffers carry lets the torus free the
        # stream's window when the channel closes.
        self._stream_id = stream_id or f"mpi:{source.index}->{destination.index}:{id(self)}"
        self._open = False

    def open(self):
        self.torus.register_stream(self.destination.index, self._stream_id)
        self._open = True
        return
        yield  # pragma: no cover - makes this a generator

    def send(self, buffer: WireBuffer):
        yield from self.torus.send(buffer, self.source.index, self.destination.index, self.deliver)

    def close(self):
        """Release torus state (MPI local completion: buffers may still fly).

        Unlike the TCP carrier this does **not** drain in-flight buffers:
        the paper's MPI semantics complete at injection, so the receiver
        driver — not the channel — is the authority on when the stream's
        flow records are finished (it drops stragglers once it consumes the
        end-of-stream marker).
        """
        if self._open:
            self.torus.unregister_stream(self.destination.index, self._stream_id)
            self._open = False
        return
        yield  # pragma: no cover - makes this a generator

    def abort(self) -> None:
        if self._open:
            self.torus.unregister_stream(self.destination.index, self._stream_id)
            self._open = False


class TcpChannel(Channel):
    """Inbound TCP stream from a Linux host into a BlueGene compute node."""

    def __init__(
        self,
        sim: Simulator,
        source: Node,
        destination: Node,
        deliver: Store,
        fabric: EthernetFabric,
        stream_id: str,
    ):
        if source.kind is not NodeKind.LINUX or destination.kind is not NodeKind.BG_COMPUTE:
            raise NetworkError(
                "TcpChannel carries Linux-host -> BlueGene-compute streams; "
                f"got {source.node_id} -> {destination.node_id}"
            )
        super().__init__(sim, source, destination, deliver)
        self._connection = TcpStreamConnection(
            fabric, source, destination.index, deliver, stream_id
        )
        self._params = fabric.params

    def open(self):
        yield from self._connection.open()

    def send(self, buffer: WireBuffer):
        yield from self._connection.send(buffer)

    def close(self):
        yield from self._connection.close()

    def abort(self) -> None:
        self._connection.abort()

    @property
    def preferred_buffer_bytes(self) -> Optional[int]:
        return self._params.tcp.segment_bytes


class LatencyChannel(Channel):
    """Uncontended low-volume path (results, registrations, intra-cluster)."""

    def __init__(
        self,
        sim: Simulator,
        source: Node,
        destination: Node,
        deliver: Store,
        params: NetworkParams,
        jitter: Optional[Jitter] = None,
    ):
        super().__init__(sim, source, destination, deliver)
        self.params = params
        self.jitter = jitter or Jitter()
        self._wire_name: Optional[str] = None  # hop resource label, formatted once

    def send(self, buffer: WireBuffer):
        latency = self.params.ethernet.switch_latency
        serialization = buffer.nbytes / self.params.ethernet.nic_rate
        cost = self.jitter.apply(latency + serialization)
        yield self.sim.timeout(cost)
        flows = self.sim.obs.flows
        if flows.enabled:
            if self._wire_name is None:
                self._wire_name = (
                    f"wire[{self.source.node_id}->{self.destination.node_id}]"
                )
            flows.hop(
                buffer, "latency.wire", self.sim.now,
                resource=self._wire_name, wire=cost,
            )
        yield self.deliver.put(buffer)
        if flows.enabled:
            flows.hop(buffer, "latency.deliver", self.sim.now)
