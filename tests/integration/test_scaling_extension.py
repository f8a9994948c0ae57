"""Integration: the partition-scaling claims
(``repro.core.experiments.claims``) on the quick sweep."""

from repro.core.experiments import FIGURES

(SCALING,) = FIGURES["scaling"]


class TestScalingExtension:
    def test_one_gig_uplink_is_the_ceiling(self, holds):
        holds("scaling.q5_at_the_uplink")

    def test_spread_hosts_degrade_at_one_gig(self, holds):
        holds("scaling.q6_degrades")

    def test_fast_uplink_lets_spread_hosts_scale(self, holds):
        holds("scaling.q6_scales")

    def test_single_host_pinned_by_its_nic(self, holds):
        holds("scaling.q5_pinned_by_its_nic")

    def test_table_renders(self, quick):
        assert quick(SCALING).format_table().startswith(SCALING.title)
