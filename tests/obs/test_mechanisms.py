"""Mechanism regression tests: the instrumentation sees *why* the curves bend.

Each published shape reproduced by the experiments has a mechanism behind
it; these tests pin those mechanisms with metrics instead of trusting that
the right bandwidth emerged for the right reason:

* Figure 8 — under the sequential node selection (x=1, y=2) node b's
  torus traffic is routed *through* the intermediate node's communication
  co-processor, so ``coproc[1]`` is the busiest; the balanced selection
  (x=1, y=4) leaves the receiver's own co-processor busiest.
* Figure 15 — Query 5's dip at n=5 happens because a partition has four
  I/O nodes, so a fifth receiving pset must share one of them.
* Figure 6 — buffers below the 1024-byte torus packet are padded, so
  bytes on the wire far exceed the payload.
"""


from repro.core.experiments.fig6 import point_to_point_query
from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.measurement import measure_query_bandwidth
from repro.engine.settings import ExecutionSettings
from repro.obs import Instrumentation
from tests.conftest import busiest_of


def _observe(query: str, payload: int, settings: ExecutionSettings) -> Instrumentation:
    result = measure_query_bandwidth(
        query,
        payload_bytes=payload,
        settings=settings,
        repeats=1,
        observe="metrics",
    )
    (obs,) = result.observations
    return obs


class TestFig8IntermediateCoprocessor:
    """Sequential placement funnels b's stream through node 1's co-processor."""

    SETTINGS = ExecutionSettings(mpi_buffer_bytes=100_000)

    def _busiest_coproc(self, x: int, y: int) -> str:
        query = merge_query(100_000, 4, x, y)
        obs = _observe(query, payload=2 * 100_000 * 4, settings=self.SETTINGS)
        name, busy = busiest_of(obs, "coproc")
        assert busy > 0.0
        return name

    def test_sequential_routes_through_intermediate_node(self):
        x, y = SEQUENTIAL
        assert self._busiest_coproc(x, y) == f"coproc[{x}]"

    def test_balanced_keeps_receiver_coproc_busiest(self):
        assert self._busiest_coproc(*BALANCED) == "coproc[0]"


class TestFig15ConnectionSharing:
    """At n=5 one of the partition's four I/O nodes serves two connections."""

    def _io_connection_peaks(self, n: int):
        query = inbound_query(5, n, 300_000, 3)
        obs = _observe(query, payload=n * 300_000 * 3,
                       settings=ExecutionSettings())
        snap = obs.snapshot()
        return [
            peak
            for name, peak in sorted(snap.peaks.items())
            if name.startswith("ethernet.io_connections[")
        ]

    def test_four_streams_spread_over_four_io_nodes(self):
        assert self._io_connection_peaks(4) == [1, 1, 1, 1]

    def test_fifth_stream_shares_an_io_node(self):
        peaks = self._io_connection_peaks(5)
        assert sorted(peaks) == [1, 1, 1, 2]


class TestFig6PacketPadding:
    """Sub-1KB buffers are padded to whole 1024-byte torus packets."""

    def _wire_ratio(self, buffer_bytes: int) -> float:
        query = point_to_point_query(30_000, 4)
        obs = _observe(query, payload=30_000 * 4,
                       settings=ExecutionSettings(mpi_buffer_bytes=buffer_bytes))
        snap = obs.snapshot()
        payload = snap.counter("torus.payload_bytes")
        wire = snap.counter("torus.wire_bytes")
        assert payload >= 30_000 * 4  # the stream actually flowed
        return wire / payload

    def test_tiny_buffers_mostly_padding(self):
        # 200-byte buffers ride in 1024-byte packets: > 2x overhead.
        assert self._wire_ratio(200) > 2.0

    def test_kilobyte_buffers_fit_packets(self):
        assert self._wire_ratio(1000) < 1.1
        assert self._wire_ratio(2000) < 1.1

    def test_padding_explains_the_knee(self):
        # The wire-byte inflation is monotone in buffer shrinkage.
        assert self._wire_ratio(200) > self._wire_ratio(1000)
