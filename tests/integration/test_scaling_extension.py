"""Integration: the partition-scaling extension (small configuration).

The paper's open question (section 5) about larger partitions, answered at
test scale: the shared 1 Gbps uplink pins the best topology regardless of
I/O-node count, and a faster uplink lets the spread-host topology scale.
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(SCALING,) = FIGURES["scaling"]

PARTITIONS = (((4, 4, 2), 4), ((4, 4, 4), 8))


@pytest.fixture(scope="module")
def study():
    return run_sweep(SCALING, partitions=PARTITIONS, repeats=2, array_count=3)


class TestScalingExtension:
    def test_one_gig_uplink_is_the_ceiling(self, study):
        q5_small = study.at(5, 4, 1.0).mean_mbps
        q5_large = study.at(5, 8, 1.0).mean_mbps
        assert q5_large == pytest.approx(q5_small, rel=0.1)
        assert 850 <= q5_small <= 960

    def test_spread_hosts_degrade_at_one_gig(self, study):
        assert study.at(6, 8, 1.0).mean_mbps < study.at(6, 4, 1.0).mean_mbps

    def test_fast_uplink_lets_spread_hosts_scale(self, study):
        assert study.at(6, 8, 10.0).mean_mbps > 1.6 * study.at(6, 4, 10.0).mean_mbps

    def test_single_host_pinned_by_its_nic(self, study):
        assert study.at(5, 8, 10.0).mean_mbps < 1.1 * study.at(5, 4, 10.0).mean_mbps

    def test_table_renders(self, study):
        table = study.format_table()
        assert "io-nodes" in table and "Q5@1G" in table
