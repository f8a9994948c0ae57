"""Calibration parameters for the simulated communication substrate.

Every constant that shapes the reproduced figures lives here, in frozen
records, so that experiments can state exactly which cost model they
ran under.

The parameters are calibrated against the published envelope:

* torus links carry 1.4 Gbps and the minimum torus message is 1 KB
  (paper section 2.1 / Figure 6 discussion);
* marshaling throughput collapses above a ~1 KB working set ("the drop-off
  above the 1000-byte buffer size is probably due to cache misses");
* the receiving communication co-processor is single threaded and pays a
  switching penalty when alternating between senders (Figure 8 discussion);
* I/O-node NICs and back-end NICs are 1 Gbit/s; peak measured inbound
  bandwidth is ~920 Mbps (Figure 15, observation 3);
* an I/O node suffers "coordination problems ... when communicating with
  many outside nodes" (observation 3) and degrades when several compute
  nodes share it (observation 5).

Absolute values are *model* values chosen to land the published shapes, not
testbed measurements; see EXPERIMENTS.md for the shape-by-shape comparison.
"""

from __future__ import annotations

from repro.util.record import Frozen
from repro.util.units import gbps


class TorusParams(Frozen):
    """BlueGene 3D-torus / MPI transport constants."""

    #: Raw capacity of one torus link, bytes/s.
    link_rate: float
    #: Minimum torus message size; smaller sends are padded to one packet.
    packet_bytes: int
    #: Per-hop propagation + router latency, seconds.
    hop_latency: float
    #: Per-send-buffer MPI software overhead at the sending co-processor.
    injection_overhead: float
    #: Per-buffer overhead at the receiving co-processor.
    receive_overhead: float
    #: Per-buffer overhead at each intermediate forwarding co-processor.
    forward_overhead: float
    #: Switching cost of the single-threaded receiving co-processor when it
    #  alternates between senders.  Charged per received buffer as
    #  ``penalty * (k-1)`` where k is the number of streams currently
    #  terminating at the node: zero for point-to-point, the full penalty when
    #  two streams interleave (they alternate buffer-for-buffer), escalating
    #  as more streams contend for the reception FIFOs.  (Charging on *actual*
    #  source changes would make the measured bandwidth depend on accidental
    #  arrival phase — a run that luckily locks into paired arrivals halves
    #  its switching and the five repeats become bimodal — so the model uses
    #  the deterministic per-stream rate.)
    source_switch_penalty: float
    #: Buffer size above which the co-processor's buffer handling starts
    #  missing the cache.  Figure 6: "the drop-off above the 1000-byte buffer
    #  size is probably due to cache misses".
    cache_knee_bytes: int
    #: Asymptotic slowdown of co-processor buffer handling for very large
    #  buffers: handling_time(B) -> wire_time(B) * (1 + cache_penalty).
    cache_penalty: float
    #: Maximum in-flight (injected but not yet received) buffers per MPI
    #  stream.  The torus has shallow hardware FIFOs: a sender whose buffers
    #  pile up at a busy intermediate co-processor stalls rather than queueing
    #  unboundedly.  Without this bound, a contended stream arrives in long
    #  switch-free bursts, which unrealistically *helps* the sequential node
    #  selection at small buffer sizes.
    stream_window: int
    #: Receive DMA (network FIFO -> memory) costs this fraction of the
    #  corresponding inject/forward work on the co-processor.  The asymmetry
    #  is what makes the busy *intermediate* co-processor of the sequential
    #  node selection the bottleneck — balanced merging is ~1/receive_fraction
    #  (≈60%) faster, matching the paper's section 5 summary.
    receive_fraction: float
    __slots__ = ("link_rate", "packet_bytes", "hop_latency", "injection_overhead",
                 "receive_overhead", "forward_overhead", "source_switch_penalty",
                 "cache_knee_bytes", "cache_penalty", "stream_window", "receive_fraction")

    def __init__(self, link_rate: float = gbps(1.4), packet_bytes: int = 1024,
                 hop_latency: float = 0.5e-6, injection_overhead: float = 1.5e-6,
                 receive_overhead: float = 1.5e-6, forward_overhead: float = 1.0e-6,
                 source_switch_penalty: float = 40e-6, cache_knee_bytes: int = 1000,
                 cache_penalty: float = 4.0, stream_window: int = 2,
                 receive_fraction: float = 0.62) -> None:
        self._set_fields(link_rate, packet_bytes, hop_latency, injection_overhead, receive_overhead,
                         forward_overhead, source_switch_penalty, cache_knee_bytes, cache_penalty,
                         stream_window, receive_fraction)

    def packet_count(self, nbytes: int) -> int:
        """Number of torus packets needed for an ``nbytes`` buffer."""
        if nbytes <= 0:
            return 1
        return -(-nbytes // self.packet_bytes)  # ceil division

    def packet_time(self) -> float:
        """Wire time of one full torus packet, seconds."""
        return self.packet_bytes / self.link_rate

    def wire_time(self, nbytes: int) -> float:
        """Wire time of an ``nbytes`` buffer including padding to packets."""
        return self.packet_count(nbytes) * self.packet_time()

    def cache_factor(self, nbytes: int) -> float:
        """Slowdown multiplier (>= 1) of buffer handling at size ``nbytes``.

        1.0 up to the knee, then a sharp rise towards ``1 + cache_penalty``
        (square-root approach, so the drop-off right above the knee is
        visible, as in Figure 6).
        """
        if nbytes <= self.cache_knee_bytes:
            return 1.0
        return 1.0 + self.cache_penalty * (1.0 - self.cache_knee_bytes / nbytes) ** 0.5

    def handling_time(self, nbytes: int) -> float:
        """Co-processor time to inject or forward an ``nbytes`` buffer."""
        return self.wire_time(nbytes) * self.cache_factor(nbytes)

    def receive_time(self, nbytes: int) -> float:
        """Co-processor time to receive (DMA to memory) an ``nbytes`` buffer."""
        return self.handling_time(nbytes) * self.receive_fraction


class CpuCostParams(Frozen):
    """Compute-CPU costs of the stream engine (marshal/de-marshal/operators)."""

    #: Marshal throughput of the 700 MHz baseline CPU, bytes/s.
    marshal_rate: float
    #: De-marshal throughput of the 700 MHz baseline CPU, bytes/s.
    demarshal_rate: float
    #: Throughput of filling freshly generated arrays in memory, bytes/s.
    #  Fast enough that gen_array() sources are never the bottleneck in the
    #  paper's communication-bound experiments.
    generate_rate: float
    #: Fixed CPU cost per marshal/de-marshal buffer cycle.
    per_buffer_overhead: float
    #: Fixed CPU cost per stream object handled by an operator.
    per_object_overhead: float
    #: Extra per-buffer synchronization cost when double buffering.  Makes
    #  double buffering roughly break even for small buffers and pay off for
    #  large ones, as Figure 6 reports.
    double_buffer_sync_overhead: float
    __slots__ = ("marshal_rate", "demarshal_rate", "generate_rate", "per_buffer_overhead",
                 "per_object_overhead", "double_buffer_sync_overhead")

    def __init__(self, marshal_rate: float = 175e6, demarshal_rate: float = 175e6,
                 generate_rate: float = 1.4e9, per_buffer_overhead: float = 4.0e-6,
                 per_object_overhead: float = 1.0e-6,
                 double_buffer_sync_overhead: float = 7.5e-6) -> None:
        self._set_fields(marshal_rate, demarshal_rate, generate_rate, per_buffer_overhead,
                         per_object_overhead, double_buffer_sync_overhead)

    def marshal_time(self, nbytes: int) -> float:
        """CPU time to marshal an ``nbytes`` buffer."""
        return self.per_buffer_overhead + nbytes / self.marshal_rate

    def demarshal_time(self, nbytes: int) -> float:
        """CPU time to de-marshal an ``nbytes`` buffer."""
        return self.per_buffer_overhead + nbytes / self.demarshal_rate


class EthernetParams(Frozen):
    """Switched Gigabit Ethernet between the Linux clusters and BlueGene."""

    #: Back-end / front-end node NIC capacity, bytes/s.
    nic_rate: float
    #: Capacity of the switch port facing the BlueGene I/O drawer, bytes/s.
    #  All inbound streams share this port, which is why the measured peak
    #  (~920 Mbps) does not scale past one NIC's worth of traffic.
    uplink_rate: float
    #: Store-and-forward latency of the switch, seconds.
    switch_latency: float
    __slots__ = ("nic_rate", "uplink_rate", "switch_latency")

    def __init__(self, nic_rate: float = gbps(1.0), uplink_rate: float = gbps(1.0),
                 switch_latency: float = 20e-6) -> None:
        self._set_fields(nic_rate, uplink_rate, switch_latency)


class TcpParams(Frozen):
    """TCP stream-carrier costs (paper section 2.3: TCP between clusters)."""

    #: Fraction of extra wire bytes per payload byte (headers, acks).
    header_overhead: float
    #: Effective send-buffer flush size; the paper relies on "the buffering
    #  of the TCP stack", so inbound experiments do not sweep this.
    segment_bytes: int
    #: Kernel/socket cost per segment on the sending host.
    per_segment_overhead: float
    #: One-time handshake cost per connection.
    connection_setup: float
    #: End-to-end flow-control window, in segments: at most this many
    #  buffers of one connection may be in flight between the sending host
    #  and the receiving compute node.  Models the TCP window; without it the
    #  fast back-end NIC would build unbounded queues inside the ingress.
    window_segments: int
    __slots__ = ("header_overhead", "segment_bytes", "per_segment_overhead", "connection_setup",
                 "window_segments")

    def __init__(self, header_overhead: float = 0.05, segment_bytes: int = 64 * 1024,
                 per_segment_overhead: float = 8.0e-6, connection_setup: float = 500e-6,
                 window_segments: int = 4) -> None:
        self._set_fields(header_overhead, segment_bytes, per_segment_overhead, connection_setup,
                         window_segments)


class IONodeParams(Frozen):
    """BlueGene I/O-node forwarding behaviour (TCP proxy -> tree network)."""

    #: Sustainable proxy (ciod) forwarding throughput with a single external
    #  peer and a single connection, bytes/s.
    proxy_rate: float
    #: Per-forwarded-segment software overhead on the I/O node.
    per_buffer_overhead: float
    #: Coordination slowdown of one I/O node's proxy per additional
    #  *distinct external host* connected to it:
    #  rate *= 1 / (1 + peer_coordination*(H_io - 1)).  Models observation
    #  (4): Query 1 (one back-end host) beats Query 2 (n hosts) through the
    #  same I/O node.
    peer_coordination: float
    #: Slowdown of an I/O node's proxy per additional concurrent connection:
    #  rate = proxy_rate / (1 + connection_sharing_penalty*(C-1)).  Models
    #  observation (5): for n>4, compute nodes share I/O nodes and the
    #  bandwidth decreases (the Query 5 dip at n=5), and the generally low
    #  bandwidth of Queries 1-4, which funnel n connections through one I/O
    #  node.
    connection_sharing_penalty: float
    #: Slowdown of the shared switch uplink per additional distinct external
    #  host feeding the whole ingress.  Models observation (3): injecting over
    #  four I/O nodes from one back-end node (Query 5) beats four separate
    #  back-end nodes (Query 6) — "coordination problems in the I/O node when
    #  communicating with many outside nodes".
    uplink_host_coordination: float
    #: Sustainable TCP-over-tree receive processing rate of one BlueGene
    #  compute node, bytes/s.  The CNK socket path is software-heavy; this is
    #  what makes two receiving compute nodes better than one (observation 2)
    #  and puts all queries at the same ~280 Mbps point for n=1.
    compute_receive_rate: float
    #: Tree network capacity from the I/O node into its pset, bytes/s.
    tree_rate: float
    __slots__ = ("proxy_rate", "per_buffer_overhead", "peer_coordination",
                 "connection_sharing_penalty", "uplink_host_coordination", "compute_receive_rate",
                 "tree_rate")

    def __init__(self, proxy_rate: float = 850e6 / 8.0, per_buffer_overhead: float = 12e-6,
                 peer_coordination: float = 0.35, connection_sharing_penalty: float = 1.8,
                 uplink_host_coordination: float = 0.08, compute_receive_rate: float = 32e6,
                 tree_rate: float = gbps(2.8)) -> None:
        self._set_fields(proxy_rate, per_buffer_overhead, peer_coordination,
                         connection_sharing_penalty, uplink_host_coordination, compute_receive_rate,
                         tree_rate)


class NetworkParams(Frozen):
    """Complete parameter set for one simulated environment."""

    torus: TorusParams
    cpu: CpuCostParams
    ethernet: EthernetParams
    tcp: TcpParams
    io_node: IONodeParams
    #: Relative magnitude of the per-run random cost jitter.  The paper ran
    #  every experiment five times "to achieve low variance"; jitter gives the
    #  repeated simulated runs a comparable (small) spread.
    jitter: float
    __slots__ = ("torus", "cpu", "ethernet", "tcp", "io_node", "jitter")

    def __init__(self, torus: TorusParams = TorusParams(), cpu: CpuCostParams = CpuCostParams(),
                 ethernet: EthernetParams = EthernetParams(), tcp: TcpParams = TcpParams(),
                 io_node: IONodeParams = IONodeParams(), jitter: float = 0.01) -> None:
        self._set_fields(torus, cpu, ethernet, tcp, io_node, jitter)

    def with_overrides(self, **sections) -> "NetworkParams":
        """Copy of this parameter set with whole sections replaced.

        Example::

            params.with_overrides(torus=params.torus.replace(link_rate=gbps(2.8)))
        """
        return self.replace(**sections)


DEFAULT_PARAMS = NetworkParams()
