"""Integration: the Figure 15 claims (``repro.core.experiments.claims``) on
the quick sweep, and the placements of Queries 1-6."""

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(FIG15,) = FIGURES["fig15"]


class TestFig15Shape:
    def test_all_queries_equal_at_one_stream(self, holds):
        holds("fig15.equal_at_one_stream")

    def test_single_io_node_queries_are_far_slower(self, holds):
        holds("fig15.one_io_node_is_slow")

    def test_query3_slightly_better_than_query1_at_small_n(self, holds):
        holds("fig15.q3_over_q1")

    def test_query1_beats_query2(self, holds):
        holds("fig15.q1_over_q2")

    def test_query4_at_least_matches_query2(self, holds):
        holds("fig15.q4_over_q2")

    def test_query5_peaks_around_920_mbps(self, holds):
        holds("fig15.q5_peak")

    def test_query5_beats_query6_at_peak(self, holds):
        holds("fig15.q5_over_q6")

    def test_query5_dips_at_five_streams(self, holds):
        holds("fig15.dip_at_five")

    def test_table_renders(self, quick):
        assert quick(FIG15).format_table().startswith(FIG15.title)


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
