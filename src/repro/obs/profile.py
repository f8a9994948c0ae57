"""The critical-path profiler: from per-flow hop logs to "what was slow".

The flow recorder (:mod:`repro.obs.flow`) leaves behind a complete causal
history of every delivered wire buffer.  This module walks those records
and answers the question the paper answers by inspection of its figures:
*which resource was the bottleneck of this query?*

Two aggregations are computed over all completed data flows:

* **per resource** — every hop that names a contended resource
  (``coproc[1]``, ``io-proxy[2]``, ``nic[be0]``, ``tree[0]``…) contributes
  its service time (serialize + wire + processing) and its queue wait to
  that resource.  Ranking resources by total *service* time mirrors the
  resource-busy-time semantics of the metrics registry: the resource that
  worked the longest on the stream's behalf is the pipeline stage that
  bounds throughput.  For the paper's Figure 8 sequential placement this
  names the intermediate co-processor that both forwards b->c traffic and
  receives a->b traffic; for Figure 15's Query 5 at n=5 it names the I/O
  node proxy shared by two compute nodes (observation 5).
* **per stage** — hops grouped by stage label (``torus.window``,
  ``receiver.inbox``…), which captures the waits that belong to no single
  resource: back-pressure windows, inbox dwell, send-token starvation.

A :class:`BottleneckReport` renders both as ranked text and JSON, and also
tallies **critical votes**: for each flow, the resource serving its single
longest hop gets one vote — a per-flow critical-path view that usually
agrees with the service ranking and flags skew when it does not.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.flow import FlowRecord, FlowRecorder, NullFlowRecorder
from repro.obs.instrument import NullInstrumentation
from repro.util.record import Frozen, Record
from repro.util.stats import latency_summary


class ResourceCost(Frozen):
    """Aggregated latency attribution of one contended resource."""

    resource: str
    service: float
    queue_wait: float
    hops: int
    critical_votes: int
    stages: Tuple[str, ...]
    streams: Tuple[str, ...]
    __slots__ = ("resource", "service", "queue_wait", "hops", "critical_votes", "stages", "streams")

    def __init__(self, resource: str, service: float, queue_wait: float, hops: int,
                 critical_votes: int, stages: Tuple[str, ...], streams: Tuple[str, ...]) -> None:
        self._set_fields(resource, service, queue_wait, hops, critical_votes, stages, streams)

    @property
    def total(self) -> float:
        """Service plus queueing: all flow time spent at this resource."""
        return self.service + self.queue_wait


class StageCost(Frozen):
    """Aggregated latency attribution of one hop stage (by label)."""

    stage: str
    service: float
    queue_wait: float
    hops: int
    __slots__ = ("stage", "service", "queue_wait", "hops")

    def __init__(self, stage: str, service: float, queue_wait: float, hops: int) -> None:
        self._set_fields(stage, service, queue_wait, hops)

    @property
    def total(self) -> float:
        return self.service + self.queue_wait


class StreamLatency(Frozen):
    """End-to-end latency summary of one stream edge."""

    stream_id: str
    flows: int
    mean: float
    p50: float
    p95: float
    p99: float
    __slots__ = ("stream_id", "flows", "mean", "p50", "p95", "p99")

    def __init__(self, stream_id: str, flows: int, mean: float, p50: float, p95: float,
                 p99: float) -> None:
        self._set_fields(stream_id, flows, mean, p50, p95, p99)


class BottleneckReport(Record):
    """Ranked bottleneck attribution over a set of completed flows."""

    __slots__ = ("flows", "dropped", "resources", "stages", "streams")

    def __init__(self, flows: int, dropped: int, resources: Optional[List[ResourceCost]] = None,
                 stages: Optional[List[StageCost]] = None,
                 streams: Optional[List[StreamLatency]] = None) -> None:
        self.flows = flows
        self.dropped = dropped
        self.resources = [] if resources is None else resources
        self.stages = [] if stages is None else stages
        self.streams = [] if streams is None else streams

    def top(self, n: int = 1) -> List[ResourceCost]:
        """The ``n`` highest-service resources (the bottleneck candidates)."""
        return self.resources[:n]

    @property
    def bottleneck(self) -> Optional[ResourceCost]:
        """The single top-ranked resource, or None with no attributed hops."""
        return self.resources[0] if self.resources else None

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def format_text(self) -> str:
        """Human-readable ranked report (the ``--bottlenecks`` output): the
        top ten resources and stages."""
        lines = [f"critical-path profile: {self.flows} flows"
                 + (f" ({self.dropped} dropped in flight)" if self.dropped else "")]
        lines.append("")
        lines.append("ranked resources (by service time):")
        if not self.resources:
            lines.append("  (no resource-attributed hops recorded)")
        header = (
            f"  {'#':>2} {'resource':<24} {'service_s':>10} "
            f"{'queue_s':>10} {'hops':>6} {'votes':>6}"
        )
        if self.resources:
            lines.append(header)
        for rank, cost in enumerate(self.resources[:10], start=1):
            lines.append(
                f"  {rank:>2} {cost.resource:<24} {cost.service:>10.6f} "
                f"{cost.queue_wait:>10.6f} {cost.hops:>6d} {cost.critical_votes:>6d}"
            )
        lines.append("")
        lines.append("stages (waits without a single owning resource included):")
        for cost in self.stages[:10]:
            lines.append(
                f"     {cost.stage:<24} service {cost.service:>10.6f}  "
                f"queue {cost.queue_wait:>10.6f}  hops {cost.hops}"
            )
        if self.streams:
            lines.append("")
            lines.append("per-stream end-to-end latency (seconds):")
            for stream in self.streams:
                lines.append(
                    f"     {stream.stream_id:<28} n={stream.flows:<4d} "
                    f"mean {stream.mean:.6f}  p50 {stream.p50:.6f}  "
                    f"p95 {stream.p95:.6f}  p99 {stream.p99:.6f}"
                )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """JSON-serializable form of the full report."""
        return {
            "flows": self.flows,
            "dropped": self.dropped,
            "resources": [
                {
                    "resource": c.resource,
                    "service_s": c.service,
                    "queue_wait_s": c.queue_wait,
                    "total_s": c.total,
                    "hops": c.hops,
                    "critical_votes": c.critical_votes,
                    "stages": list(c.stages),
                    "streams": list(c.streams),
                }
                for c in self.resources
            ],
            "stages": [
                {
                    "stage": c.stage,
                    "service_s": c.service,
                    "queue_wait_s": c.queue_wait,
                    "hops": c.hops,
                }
                for c in self.stages
            ],
            "streams": [
                {
                    "stream_id": s.stream_id,
                    "flows": s.flows,
                    "latency_mean_s": s.mean,
                    "latency_p50_s": s.p50,
                    "latency_p95_s": s.p95,
                    "latency_p99_s": s.p99,
                }
                for s in self.streams
            ],
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")


#: Anything a profile can be computed from.
Profilable = Union[NullInstrumentation, NullFlowRecorder, FlowRecorder]


def _recorders(sources: Union[Profilable, Iterable[Profilable]]) -> List[NullFlowRecorder]:
    if isinstance(sources, (NullInstrumentation, NullFlowRecorder)):
        sources = [sources]
    recorders: List[NullFlowRecorder] = []
    for source in sources:
        recorder = source.flows if isinstance(source, NullInstrumentation) else source
        recorders.append(recorder)
    return recorders


def profile_flows(records: Sequence[FlowRecord], dropped: int = 0) -> BottleneckReport:
    """Build a bottleneck report from completed flow records.

    End-of-stream marker flows are skipped (they carry no payload and their
    hop costs are pure overheads); incomplete records cannot appear here
    because only completed flows are handed in by :func:`profile`.
    """
    per_resource: Dict[str, Dict[str, object]] = {}
    per_stage: Dict[str, Dict[str, float]] = {}
    per_stream: Dict[str, List[float]] = {}
    flows = 0
    for record in records:
        if record.eos:
            continue
        flows += 1
        per_stream.setdefault(record.stream_id, []).append(record.latency)
        critical: Optional[str] = None
        critical_duration = -1.0
        for hop in record.hops:
            stage = per_stage.setdefault(
                hop.stage, {"service": 0.0, "queue_wait": 0.0, "hops": 0.0}
            )
            stage["service"] += hop.service
            stage["queue_wait"] += hop.queue_wait
            stage["hops"] += 1
            if hop.resource is None:
                continue
            entry = per_resource.setdefault(
                hop.resource,
                {"service": 0.0, "queue_wait": 0.0, "hops": 0,
                 "votes": 0, "stages": set(), "streams": set()},
            )
            entry["service"] += hop.service
            entry["queue_wait"] += hop.queue_wait
            entry["hops"] += 1
            entry["stages"].add(hop.stage)
            entry["streams"].add(record.stream_id)
            if hop.duration > critical_duration:
                critical_duration = hop.duration
                critical = hop.resource
        if critical is not None:
            per_resource[critical]["votes"] += 1
    resources = sorted(
        (
            ResourceCost(
                resource=name,
                service=entry["service"],
                queue_wait=entry["queue_wait"],
                hops=entry["hops"],
                critical_votes=entry["votes"],
                stages=tuple(sorted(entry["stages"])),
                streams=tuple(sorted(entry["streams"])),
            )
            for name, entry in per_resource.items()
        ),
        key=lambda c: (c.service, c.queue_wait),
        reverse=True,
    )
    stages = sorted(
        (
            StageCost(
                stage=name,
                service=entry["service"],
                queue_wait=entry["queue_wait"],
                hops=int(entry["hops"]),
            )
            for name, entry in per_stage.items()
        ),
        key=lambda c: c.total,
        reverse=True,
    )
    streams = []
    for stream_id, latencies in sorted(per_stream.items()):
        summary = latency_summary(latencies)
        streams.append(StreamLatency(
            stream_id=stream_id,
            flows=summary["n"],
            mean=summary["mean"],
            p50=summary["p50"],
            p95=summary["p95"],
            p99=summary["p99"],
        ))
    return BottleneckReport(
        flows=flows, dropped=dropped, resources=resources,
        stages=stages, streams=streams,
    )


def profile(sources: Union[Profilable, Iterable[Profilable]]) -> BottleneckReport:
    """Profile one or many observed runs (merging repeats).

    Args:
        sources: An :class:`~repro.obs.Instrumentation`, a
            :class:`~repro.obs.flow.FlowRecorder`, or an iterable of either
            (e.g. ``BandwidthResult.observations`` — one instrumentation
            per measurement repeat; their flows are pooled so the ranking
            reflects the whole experiment).

    Disabled recorders contribute nothing, so profiling an un-instrumented
    run yields an empty (but well-formed) report.
    """
    records: List[FlowRecord] = []
    dropped = 0
    for recorder in _recorders(sources):
        records.extend(recorder.completed)
        dropped += getattr(recorder, "dropped", 0)
    return profile_flows(records, dropped=dropped)
