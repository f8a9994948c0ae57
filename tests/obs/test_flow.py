"""Flow-level causal tracing: recorder unit tests + propagation edge cases.

The unit tests drive :class:`~repro.obs.flow.FlowRecorder` directly; the
query-level tests run real experiments and assert the properties the
latency attribution rests on:

* hop components of every completed flow sum exactly to its end-to-end
  latency (nothing double counted, nothing lost);
* merge fan-in keeps per-source flows separate (each input stream edge has
  its own flow ids and latencies);
* a multi-hop torus route logs one forwarding hop per intermediate node;
* a finished stream leaves no in-flight records behind (the receiver
  drops what the end-of-stream marker may have overtaken).
"""

import pytest

from repro.core.experiments.fig6 import point_to_point_query
from repro.core.experiments.fig8 import SEQUENTIAL, merge_query
from repro.core.measurement import measure_query_bandwidth
from repro.engine.settings import ExecutionSettings
from repro.net.message import WireBuffer
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.flow import NULL_FLOWS, FlowRecorder


def _observe(query: str, payload: int, settings=None) -> Instrumentation:
    result = measure_query_bandwidth(
        query,
        payload_bytes=payload,
        settings=settings or ExecutionSettings(),
        repeats=1,
        observe="flows",
    )
    (obs,) = result.observations
    return obs


def _buffer(stream="s", source="n0", nbytes=1000) -> WireBuffer:
    return WireBuffer.data(stream, source, nbytes, fragments=())


class TestFlowRecorderUnit:
    def test_begin_hop_complete_partitions_latency(self):
        recorder = FlowRecorder()
        buffer = _buffer()
        recorder.begin(buffer, 1.0)
        recorder.hop(buffer, "a", 1.5, resource="r1", serialize=0.2)
        recorder.hop(buffer, "b", 2.5, wire=0.4, processing=0.1)
        recorder.complete(buffer, 3.0)
        (record,) = recorder.completed
        assert record.latency == pytest.approx(2.0)
        assert [h.stage for h in record.hops] == ["a", "b", "deliver.tail"]
        first, second, tail = record.hops
        assert first.queue_wait == pytest.approx(0.3)  # 0.5 interval - 0.2
        assert second.queue_wait == pytest.approx(0.5)  # 1.0 - 0.4 - 0.1
        assert tail.queue_wait == pytest.approx(0.5)
        assert sum(record._component_sums()) == pytest.approx(record.latency)

    def test_over_declared_service_is_scaled_not_negative(self):
        recorder = FlowRecorder()
        buffer = _buffer()
        recorder.begin(buffer, 0.0)
        # declares 2s of wire inside a 1s interval (e.g. jittered baseline)
        recorder.hop(buffer, "x", 1.0, resource="r", wire=1.5, processing=0.5)
        recorder.complete(buffer, 1.0)
        (record,) = recorder.completed
        hop = record.hops[0]
        assert hop.queue_wait == 0.0
        assert hop.wire == pytest.approx(0.75)
        assert hop.processing == pytest.approx(0.25)
        assert hop.service == pytest.approx(hop.duration)

    def test_hooks_on_unbegun_buffer_are_ignored(self):
        recorder = FlowRecorder()
        buffer = _buffer()
        recorder.hop(buffer, "a", 1.0)
        recorder.complete(buffer, 2.0)
        assert recorder.completed == []
        assert recorder.in_flight_count == 0

    def test_drop_stream_removes_only_that_stream(self):
        recorder = FlowRecorder()
        mine, other = _buffer(stream="mine"), _buffer(stream="other")
        recorder.begin(mine, 0.0)
        recorder.begin(other, 0.0)
        assert recorder.drop_stream("mine") == 1
        assert recorder.dropped == 1
        assert recorder.in_flight_count == 1
        assert recorder.in_flight_streams() == {"other": 1}
        # dropping again is a no-op, and later hooks on the dropped buffer
        # are silently ignored
        assert recorder.drop_stream("mine") == 0
        recorder.complete(mine, 1.0)
        assert recorder.completed == []

    def test_latencies_exclude_eos_by_default(self):
        recorder = FlowRecorder()
        data = _buffer()
        eos = WireBuffer.end_of_stream("s", "n0")
        for buffer in (data, eos):
            recorder.begin(buffer, 0.0)
            recorder.complete(buffer, 2.0)
        assert recorder.latencies() == [pytest.approx(2.0)]
        assert len(recorder.latencies(include_eos=True)) == 2

    def test_publish_sets_stream_gauges(self):
        recorder = FlowRecorder()
        for _ in range(4):
            buffer = _buffer(stream="edge")
            recorder.begin(buffer, 0.0)
            recorder.hop(buffer, "a", 1.0, resource="r", wire=0.25)
            recorder.complete(buffer, 1.0)
        metrics = MetricsRegistry()
        recorder.publish(metrics)
        assert metrics.gauges["flow.completed[edge]"].value == 4
        assert metrics.gauges["flow.latency.p95[edge]"].value == pytest.approx(1.0)
        assert metrics.gauges["flow.time.wire[edge]"].value == pytest.approx(1.0)
        assert metrics.gauges["flow.time.queue_wait[edge]"].value == pytest.approx(3.0)
        # publishing twice is idempotent (gauges, not counters)
        recorder.publish(metrics)
        assert metrics.gauges["flow.completed[edge]"].value == 4

    def test_null_recorder_is_inert(self):
        buffer = _buffer()
        NULL_FLOWS.begin(buffer, 0.0)
        NULL_FLOWS.hop(buffer, "a", 1.0)
        NULL_FLOWS.complete(buffer, 2.0)
        assert NULL_FLOWS.enabled is False
        assert NULL_FLOWS.completed == []
        assert NULL_FLOWS.in_flight_count == 0
        assert NULL_FLOWS.drop_stream("s") == 0


class TestFlowPropagation:
    """Query-level edge cases over the real engine + network models."""

    def test_hops_sum_to_end_to_end_latency(self):
        """The acceptance criterion: attribution partitions the latency."""
        obs = _observe(
            point_to_point_query(100_000, 4),
            payload=100_000 * 4,
            settings=ExecutionSettings(mpi_buffer_bytes=100_000),
        )
        records = obs.flows.completed
        assert records
        for record in records:
            hop_sum = sum(hop.duration for hop in record.hops)
            assert hop_sum == pytest.approx(record.latency, abs=1e-12)
            component_sum = sum(record._component_sums())
            assert component_sum == pytest.approx(record.latency, abs=1e-9)

    def test_merge_fan_in_preserves_per_source_flows(self):
        x, y = SEQUENTIAL
        obs = _observe(
            merge_query(100_000, 4, x, y),
            payload=2 * 100_000 * 4,
            settings=ExecutionSettings(mpi_buffer_bytes=100_000),
        )
        streams = {
            record.stream_id: record
            for record in obs.flows.completed
            if not record.eos
        }
        # the merge's two input edges both have completed flows...
        merge_edges = [s for s in streams if "->c@" in s]
        assert len(merge_edges) == 2
        # ...and flow ids never collide across edges
        ids = [r.flow_id for r in obs.flows.completed]
        assert len(ids) == len(set(ids))
        for edge in merge_edges:
            assert obs.flows.latencies(edge)

    def test_torus_multi_hop_logs_every_intermediate_node(self):
        """b=node 2 -> c=node 0 routes through node 1 (paper Figure 7A)."""
        x, y = SEQUENTIAL
        obs = _observe(
            merge_query(100_000, 4, x, y),
            payload=2 * 100_000 * 4,
            settings=ExecutionSettings(mpi_buffer_bytes=100_000),
        )
        multi_hop = [
            record
            for record in obs.flows.completed
            if not record.eos
            and any(hop.stage.startswith("torus.forward[") for hop in record.hops)
        ]
        assert multi_hop, "the sequential placement must route via node 1"
        for record in multi_hop:
            stages = [hop.stage for hop in record.hops]
            assert f"torus.forward[{x}]" in stages
            resources = {hop.resource for hop in record.hops}
            assert f"coproc[{x}]" in resources

    def test_finished_streams_leave_no_in_flight_records(self):
        """Channel + stream teardown must not leak the in-flight table."""
        obs = _observe(
            merge_query(100_000, 4, *SEQUENTIAL),
            payload=2 * 100_000 * 4,
            settings=ExecutionSettings(mpi_buffer_bytes=100_000),
        )
        assert obs.flows.in_flight_count == 0
        assert obs.flows.completed  # the flows finished rather than vanished

    def test_snapshot_carries_flow_latency_metrics(self):
        obs = _observe(
            point_to_point_query(50_000, 3),
            payload=50_000 * 3,
            settings=ExecutionSettings(mpi_buffer_bytes=50_000),
        )
        snap = obs.snapshot()
        flow_gauges = [n for n in snap.gauges if n.startswith("flow.latency.p95[")]
        assert flow_gauges
