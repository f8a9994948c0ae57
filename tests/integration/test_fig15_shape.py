"""Integration: the Figure 15 inbound-streaming shape (scaled down).

Asserted claims, from the paper's section 3.2 observations:

1. Queries 1-4 (one I/O node) are far below Queries 5-6 (many I/O nodes);
2. Queries 3/4 are slightly better than Queries 1/2 at small n;
3. Query 5 peaks at ~920 Mbps and beats Query 6;
4. Query 1 beats Query 2;
5. Query 5 dips at n=5 (four I/O nodes on the partition).
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG15,) = FIGURES["fig15"]


@pytest.fixture(scope="module")
def fig15():
    return run_sweep(
        FIG15,
        stream_counts=(1, 2, 4, 5),
        queries=(1, 2, 3, 4, 5, 6),
        repeats=2,
        array_count=5,
    )


class TestFig15Shape:
    def test_all_queries_equal_at_one_stream(self, fig15):
        values = [fig15.at(q, 1).mean_mbps for q in range(1, 7)]
        assert max(values) < 1.05 * min(values)

    def test_single_io_node_queries_are_far_slower(self, fig15):
        for q in (1, 2, 3, 4):
            assert fig15.at(q, 4).mean_mbps < 0.5 * fig15.at(5, 4).mean_mbps

    def test_query3_slightly_better_than_query1_at_small_n(self, fig15):
        assert fig15.at(3, 2).mean_mbps > 1.05 * fig15.at(1, 2).mean_mbps

    def test_query1_beats_query2(self, fig15):
        for n in (2, 4, 5):
            assert fig15.at(1, n).mean_mbps > fig15.at(2, n).mean_mbps

    def test_query4_at_least_matches_query2(self, fig15):
        for n in (2, 4):
            assert fig15.at(4, n).mean_mbps >= 0.99 * fig15.at(2, n).mean_mbps

    def test_query5_peaks_around_920_mbps(self, fig15):
        peak, point = fig15.best(query_number=5)
        assert peak.n == 4
        assert 850 <= point.mean_mbps <= 960

    def test_query5_beats_query6_at_peak(self, fig15):
        assert fig15.at(5, 4).mean_mbps > 1.1 * fig15.at(6, 4).mean_mbps

    def test_query5_dips_at_five_streams(self, fig15):
        assert fig15.at(5, 5).mean_mbps < 0.9 * fig15.at(5, 4).mean_mbps

    def test_table_renders(self, fig15):
        table = fig15.format_table()
        assert "Figure 15" in table
        assert "Q5" in table


class TestPlacements:
    """The queries place RPs exactly as the paper's figures 9-14 show."""

    def test_query1_topology(self):
        result = run_sweep(
            FIG15, stream_counts=(3,), queries=(1,), repeats=1, array_count=2
        )
        report = result.at(1, 3).reports[0]
        be_nodes = {v for k, v in report.rp_placements.items() if k.startswith("a")}
        assert be_nodes == {"be:1"}  # all senders co-located on node 1

    def test_query2_spreads_senders(self):
        result = run_sweep(
            FIG15, stream_counts=(3,), queries=(2,), repeats=1, array_count=2
        )
        report = result.at(2, 3).reports[0]
        be_nodes = {v for k, v in report.rp_placements.items() if k.startswith("a")}
        assert len(be_nodes) == 3

    def test_query3_receivers_share_a_pset(self):
        result = run_sweep(
            FIG15, stream_counts=(3,), queries=(3,), repeats=1, array_count=2
        )
        report = result.at(3, 3).reports[0]
        bg_nodes = [
            int(v.split(":")[1])
            for k, v in report.rp_placements.items()
            if k.startswith("b[")
        ]
        assert len(bg_nodes) == 3
        assert all(8 <= node <= 15 for node in bg_nodes)  # pset 1

    def test_query5_receivers_spread_psets(self):
        result = run_sweep(
            FIG15, stream_counts=(4,), queries=(5,), repeats=1, array_count=2
        )
        report = result.at(5, 4).reports[0]
        bg_nodes = [
            int(v.split(":")[1])
            for k, v in report.rp_placements.items()
            if k.startswith("b[")
        ]
        psets = {node // 8 for node in bg_nodes}
        assert psets == {0, 1, 2, 3}
