"""Critical-path profiler: bottleneck identification regression tests.

The acceptance criteria of the observability PR: on the paper's known
hotspot configurations the profiler's *top-ranked* resource must name the
mechanism the paper identifies —

* Figure 8, sequential placement: the intermediate co-processor (node 1
  forwards the b->c traffic while also running stream process x), and
* Figure 15, Q5 at n=5: the I/O node shared by two Blue Gene nodes
  (observation 5: "two of them had to share one I/O link").
"""

import json

import pytest

from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.measurement import measure_query_bandwidth
from repro.engine.settings import ExecutionSettings
from repro.obs import Instrumentation
from repro.obs.flow import NULL_FLOWS, FlowRecorder
from repro.obs.profile import BottleneckReport, profile, profile_flows
from repro.obs.tracer import NULL_TRACER
from repro.net.message import WireBuffer


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


def _fig8_report(placement) -> BottleneckReport:
    x, y = placement
    obs = _observe(
        merge_query(100_000, 4, x, y),
        payload=2 * 100_000 * 4,
        settings=ExecutionSettings(mpi_buffer_bytes=100_000),
    )
    return profile([obs])


def _fig15_report(n: int) -> BottleneckReport:
    obs = _observe(inbound_query(5, n, 300_000, 3), payload=n * 300_000 * 3)
    return profile([obs])


class TestFig8Bottleneck:
    def test_sequential_blames_intermediate_coprocessor(self):
        """Paper fig 8: node 1 forwards b->c traffic AND runs x."""
        report = _fig8_report(SEQUENTIAL)
        x, _ = SEQUENTIAL
        assert report.bottleneck is not None
        assert report.bottleneck.resource == f"coproc[{x}]"

    def test_balanced_does_not_blame_node_one(self):
        """With x moved off the route, node 1 stops being the hotspot."""
        report = _fig8_report(BALANCED)
        assert report.bottleneck is not None
        assert report.bottleneck.resource != "coproc[1]"


class TestFig15Bottleneck:
    def test_q5_n5_blames_shared_io_proxy(self):
        """Observation 5: at n=5 two senders share one I/O node."""
        report = _fig15_report(5)
        assert report.bottleneck is not None
        assert report.bottleneck.resource.startswith("io-proxy[")

    def test_q5_n4_is_not_io_proxy_limited(self):
        """At n=4 every sender has its own I/O node; the shared
        ethernet uplink dominates instead."""
        report = _fig15_report(4)
        assert report.bottleneck is not None
        assert not report.bottleneck.resource.startswith("io-proxy[")


class TestReportShape:
    def test_empty_sources_give_wellformed_empty_report(self):
        report = profile([NULL_FLOWS, FlowRecorder(), Instrumentation(tracer=NULL_TRACER)])
        assert report.flows == 0
        assert report.bottleneck is None
        assert report.top(3) == []
        assert "0 flows" in report.format_text()
        payload = report.to_json()
        assert payload["flows"] == 0
        assert payload["resources"] == []

    def test_profile_flows_aggregates_and_ranks(self):
        recorder = FlowRecorder()
        for _ in range(3):
            buffer = WireBuffer.data("a->b", "n0", 1000, fragments=())
            recorder.begin(buffer, 0.0)
            recorder.hop(buffer, "slow", 2.0, resource="hot", processing=1.5)
            recorder.hop(buffer, "fast", 2.5, resource="cold", wire=0.25)
            recorder.complete(buffer, 3.0)
        report = profile_flows(recorder.completed)
        assert report.flows == 3
        assert report.bottleneck.resource == "hot"
        assert report.bottleneck.service == pytest.approx(4.5)
        assert report.bottleneck.critical_votes == 3
        ranked = [c.resource for c in report.top(5)]
        assert ranked == ["hot", "cold"]
        (stream,) = report.streams
        assert stream.stream_id == "a->b"
        assert stream.flows == 3
        assert stream.mean == pytest.approx(3.0)

    def test_profile_flows_skips_eos_records(self):
        recorder = FlowRecorder()
        eos = WireBuffer.end_of_stream("a->b", "n0")
        recorder.begin(eos, 0.0)
        recorder.complete(eos, 1.0)
        report = profile_flows(recorder.completed)
        assert report.flows == 0

    def test_format_text_and_json_round_trip(self, tmp_path):
        report = _fig8_report(SEQUENTIAL)
        text = report.format_text()
        assert "coproc[1]" in text.splitlines()[0] or "coproc[1]" in text
        path = tmp_path / "bottlenecks.json"
        report.write_json(str(path))
        payload = json.loads(path.read_text())
        assert payload["resources"][0]["resource"] == "coproc[1]"
        assert payload["flows"] == report.flows
        assert any(s["stream_id"] for s in payload["streams"])
