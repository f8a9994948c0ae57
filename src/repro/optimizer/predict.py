"""Analytic performance predictions from the calibrated cost model.

The paper (section 1): "Properties of the different CPUs, communication
mechanisms, and operating systems substantially influence query execution
performance.  These properties are stored in a database, which is used by
the query optimizer when assigning an SP to a CPU."

These functions are that database's *model* side: closed-form steady-state
bandwidth predictions derived from the same
:class:`~repro.net.params.NetworkParams` the simulator charges.  They are
what a cost-based placer reasons with (no simulation in the loop), and the
test suite validates them against the simulator — the predictions must
agree with the measured figures to within a tolerance, or the optimizer
would be reasoning about a different machine.

All results are payload bytes/second.
"""

from __future__ import annotations

from repro.net.params import NetworkParams
from repro.util.record import Frozen


def _marshal_cycle(params: NetworkParams, buffer_bytes: int, double_buffering: bool) -> float:
    cost = params.cpu.marshal_time(buffer_bytes)
    if double_buffering:
        cost += params.cpu.double_buffer_sync_overhead
    return cost


def _demarshal_cycle(params: NetworkParams, buffer_bytes: int, double_buffering: bool) -> float:
    cost = params.cpu.demarshal_time(buffer_bytes)
    if double_buffering:
        cost += params.cpu.double_buffer_sync_overhead
    return cost


def _inject_cycle(params: NetworkParams, buffer_bytes: int) -> float:
    return params.torus.injection_overhead + params.torus.handling_time(buffer_bytes)


def _receive_cycle(params: NetworkParams, buffer_bytes: int, streams: int = 1) -> float:
    switch = params.torus.source_switch_penalty * max(0, streams - 1)
    return params.torus.receive_overhead + params.torus.receive_time(buffer_bytes) + switch


def _round_trip(params: NetworkParams, buffer_bytes: int, hops: int, streams: int = 1) -> float:
    """Injection-to-delivery time of one buffer over ``hops`` torus links."""
    forwarding = (hops - 1) * (
        params.torus.forward_overhead + params.torus.handling_time(buffer_bytes)
    )
    return (
        _inject_cycle(params, buffer_bytes)
        + params.torus.hop_latency * hops
        + forwarding
        + _receive_cycle(params, buffer_bytes, streams=streams)
    )


def _window_cap(params: NetworkParams, buffer_bytes: int, hops: int, streams: int = 1) -> float:
    """Per-stream throughput ceiling from the shallow-FIFO in-flight window."""
    rtt = _round_trip(params, buffer_bytes, hops, streams=streams)
    return params.torus.stream_window * buffer_bytes / rtt


def predict_p2p_bandwidth(
    params: NetworkParams, buffer_bytes: int, double_buffering: bool, hops: int = 1
) -> float:
    """Steady-state intra-BG point-to-point bandwidth (the Figure 6 model).

    Single buffering serializes marshal+inject on the sender and
    receive+de-marshal on the receiver; double buffering pipelines the four
    stages, so the slowest single stage binds.  Multi-hop routes are
    additionally capped by the in-flight window over the route's round trip.
    """
    marshal = _marshal_cycle(params, buffer_bytes, double_buffering)
    inject = _inject_cycle(params, buffer_bytes)
    receive = _receive_cycle(params, buffer_bytes)
    demarshal = _demarshal_cycle(params, buffer_bytes, double_buffering)
    if double_buffering:
        cycle = max(marshal, inject, receive, demarshal)
    else:
        cycle = max(marshal + inject, receive + demarshal)
    return min(buffer_bytes / cycle, _window_cap(params, buffer_bytes, hops))


def predict_merge_bandwidth(
    params: NetworkParams,
    buffer_bytes: int,
    double_buffering: bool,
    streams: int = 2,
    through_busy_intermediate: bool = False,
    max_hops: int = 1,
) -> float:
    """Total input bandwidth at a merging node (the Figure 8 model).

    The receiving co-processor serializes all ``streams`` with a
    per-buffer switching cost; the receiving CPU de-marshals everything.
    With the *sequential* node selection the busy intermediate
    co-processor performs full-cost injection of its own stream plus
    forwarding of the routed one, halving the through rate.  ``max_hops``
    is the longest producer route; it bounds each stream through the
    in-flight window.
    """
    receive = _receive_cycle(params, buffer_bytes, streams=streams)
    demarshal = _demarshal_cycle(params, buffer_bytes, double_buffering)
    bounds = [
        buffer_bytes / receive,        # receiving co-processor
        buffer_bytes / demarshal,      # receiving CPU
        streams * _window_cap(params, buffer_bytes, max_hops, streams=streams),
    ]
    if through_busy_intermediate:
        # The intermediate node's co-processor injects its own stream and
        # forwards the other: two full handling costs per pair of buffers.
        handling = params.torus.forward_overhead + params.torus.handling_time(buffer_bytes)
        own = _inject_cycle(params, buffer_bytes)
        bounds.append(2 * buffer_bytes / (handling + own))
    return min(bounds)


class InboundShape(Frozen):
    """Topology summary of an inbound (be -> BG) streaming configuration."""

    streams: int
    hosts: int
    io_nodes: int
    receivers: int
    __slots__ = ("streams", "hosts", "io_nodes", "receivers")

    def __init__(self, streams: int, hosts: int, io_nodes: int, receivers: int) -> None:
        self._set_fields(streams, hosts, io_nodes, receivers)
        if not 1 <= self.hosts <= self.streams:
            raise ValueError(f"hosts must be in [1, streams], got {self}")
        if self.io_nodes < 1 or self.receivers < 1:
            raise ValueError(f"need at least one I/O node and receiver: {self}")


def predict_inbound_bandwidth(params: NetworkParams, shape: InboundShape) -> float:
    """Aggregate BG-inbound bandwidth of a topology (the Figure 15 model).

    The minimum of four capacities:

    * back-end NICs (wire overhead + per-segment cost, per host),
    * the shared switch uplink (degraded by distinct-host coordination),
    * the I/O-node proxies (degraded by connection sharing and per-I/O
      distinct hosts),
    * the receiving compute nodes' CNK socket path (with source-switching
      when several streams merge at one node).
    """
    tcp = params.tcp
    io = params.io_node
    segment = tcp.segment_bytes
    wire_factor = 1.0 + tcp.header_overhead

    # Back-end side: each host serializes its streams' segments.
    nic_time = segment * wire_factor / params.ethernet.nic_rate + tcp.per_segment_overhead
    nic_rate_per_host = segment / nic_time
    be_bound = shape.hosts * nic_rate_per_host

    # Shared uplink with global host coordination.
    uplink_eff = 1.0 / (1.0 + io.uplink_host_coordination * (shape.hosts - 1))
    uplink_bound = params.ethernet.uplink_rate * uplink_eff / wire_factor

    # I/O-node proxies: distribute streams (and hosts) evenly over I/O nodes.
    conns_per_io = max(1, -(-shape.streams // shape.io_nodes))
    hosts_per_io = max(1, min(shape.hosts, conns_per_io))
    sharing = 1.0 + io.connection_sharing_penalty * (conns_per_io - 1)
    coordination = 1.0 + io.peer_coordination * (hosts_per_io - 1)
    proxy_rate = io.proxy_rate / (sharing * coordination)
    proxy_time = segment * wire_factor / proxy_rate + io.per_buffer_overhead
    io_bound = shape.io_nodes * segment / proxy_time

    # Receiving compute nodes: CNK socket path + switching between streams.
    streams_per_receiver = max(1, -(-shape.streams // shape.receivers))
    receive_time = (
        segment / io.compute_receive_rate
        + params.torus.receive_overhead
        + params.torus.source_switch_penalty * (streams_per_receiver - 1)
    )
    receiver_bound = shape.receivers * segment / receive_time

    return min(be_bound, uplink_bound, io_bound, receiver_bound)
