"""Execution monitoring: what each running process did.

The paper's Figure 3 lists "(v) monitoring the execution of its SQEP"
among an RP's responsibilities.  This module collects those observations:
per-operator object counts, per-port receive volumes, per-subscriber send
volumes, and CPU busy time, snapshotted into plain records that the
client manager attaches to the execution report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.util.record import Frozen, setters
from repro.util.units import format_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.rp import RunningProcess
    from repro.obs.metrics import MetricsRegistry


class OperatorStats(Frozen):
    """One operator's throughput counters."""

    name: str
    objects_in: int
    objects_out: int
    __slots__ = ("name", "objects_in", "objects_out")

    def __init__(self, name: str, objects_in: int, objects_out: int) -> None:
        _operator_stats_name(self, name)
        _operator_stats_objects_in(self, objects_in)
        _operator_stats_objects_out(self, objects_out)


class StreamStats(Frozen):
    """One stream edge's volume, as seen by a driver."""

    stream_id: str
    bytes: int
    buffers: int
    __slots__ = ("stream_id", "bytes", "buffers")

    def __init__(self, stream_id: str, bytes: int, buffers: int) -> None:
        _stream_stats_stream_id(self, stream_id)
        _stream_stats_bytes(self, bytes)
        _stream_stats_buffers(self, buffers)


class RPStatistics(Frozen):
    """Everything one running process observed about its own execution."""

    rp_id: str
    node_id: str
    operators: Tuple[OperatorStats, ...]
    received: Tuple[StreamStats, ...]
    sent: Tuple[StreamStats, ...]
    cpu_busy_time: float
    __slots__ = ("rp_id", "node_id", "operators", "received", "sent", "cpu_busy_time")

    def __init__(self, rp_id: str, node_id: str, operators: Tuple[OperatorStats, ...],
                 received: Tuple[StreamStats, ...], sent: Tuple[StreamStats, ...],
                 cpu_busy_time: float) -> None:
        _rp_statistics_rp_id(self, rp_id)
        _rp_statistics_node_id(self, node_id)
        _rp_statistics_operators(self, operators)
        _rp_statistics_received(self, received)
        _rp_statistics_sent(self, sent)
        _rp_statistics_cpu_busy_time(self, cpu_busy_time)

    @property
    def bytes_received(self) -> int:
        return sum(s.bytes for s in self.received)

    @property
    def bytes_sent(self) -> int:
        return sum(s.bytes for s in self.sent)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.rp_id} on {self.node_id}: "
            f"cpu {self.cpu_busy_time * 1e3:.2f} ms, "
            f"in {format_bytes(self.bytes_received)}, "
            f"out {format_bytes(self.bytes_sent)}"
        ]
        for op in self.operators:
            lines.append(
                f"  {op.name}: {op.objects_in} objects in, {op.objects_out} out"
            )
        for stream in self.received:
            lines.append(
                f"  <- {stream.stream_id}: {format_bytes(stream.bytes)} "
                f"in {stream.buffers} buffers"
            )
        for stream in self.sent:
            lines.append(
                f"  -> {stream.stream_id}: {format_bytes(stream.bytes)} "
                f"in {stream.buffers} buffers"
            )
        return "\n".join(lines)

    def publish(self, metrics: "MetricsRegistry") -> None:
        """Publish these statistics into an obs metrics registry.

        Bridges the paper's RP-level monitoring (Figure 3 responsibility v)
        into the observability registry, so a ``--metrics-out`` snapshot
        carries the per-RP operator and stream counters alongside the
        substrate metrics.  Gauges, so republishing is idempotent.
        """
        prefix = f"rp.{self.rp_id}"
        metrics.set_gauge(f"{prefix}.cpu_busy_s", self.cpu_busy_time)
        metrics.set_gauge(f"{prefix}.bytes_received", self.bytes_received)
        metrics.set_gauge(f"{prefix}.bytes_sent", self.bytes_sent)
        for op in self.operators:
            metrics.set_gauge(
                f"{prefix}.operator.objects_in[{op.name}]", op.objects_in
            )
            metrics.set_gauge(
                f"{prefix}.operator.objects_out[{op.name}]", op.objects_out
            )
        for stream in self.received:
            metrics.set_gauge(
                f"{prefix}.recv.bytes[{stream.stream_id}]", stream.bytes
            )
            metrics.set_gauge(
                f"{prefix}.recv.buffers[{stream.stream_id}]", stream.buffers
            )
        for stream in self.sent:
            metrics.set_gauge(
                f"{prefix}.sent.bytes[{stream.stream_id}]", stream.bytes
            )
            metrics.set_gauge(
                f"{prefix}.sent.buffers[{stream.stream_id}]", stream.buffers
            )


# Every running process snapshots one of each per query: store through the slots.
_operator_stats_name, _operator_stats_objects_in, _operator_stats_objects_out = setters(
    OperatorStats)
_stream_stats_stream_id, _stream_stats_bytes, _stream_stats_buffers = setters(StreamStats)
(_rp_statistics_rp_id, _rp_statistics_node_id, _rp_statistics_operators,
 _rp_statistics_received, _rp_statistics_sent, _rp_statistics_cpu_busy_time) = setters(
    RPStatistics)


def snapshot(rp: "RunningProcess") -> RPStatistics:
    """Capture the current statistics of one running process."""
    return RPStatistics(
        rp_id=rp.rp_id,
        node_id=rp.node.node_id,
        operators=tuple(
            OperatorStats(
                name=op.name, objects_in=op.objects_in, objects_out=op.objects_out
            )
            for op in rp.operators
        ),
        received=tuple(
            StreamStats(
                stream_id=port.driver.stream_id,
                bytes=port.driver.bytes_received,
                buffers=port.driver.buffers_received,
            )
            for port in rp.input_ports
        ),
        sent=tuple(
            StreamStats(
                stream_id=sender.stream_id,
                bytes=sender.bytes_sent,
                buffers=sender.buffers_sent,
            )
            for sender in rp.senders
        ),
        cpu_busy_time=rp.ctx.cpu_busy_time,
    )
