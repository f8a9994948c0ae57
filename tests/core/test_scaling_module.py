"""Unit tests for the scaling-study module (fast paths only)."""

import pytest

from repro.core.experiments import FIGURES
from repro.core.experiments.scaling import ScalingKey, _environment
from repro.core.measurement import BandwidthResult, SweepResult
from repro.util.stats import summarize

(SCALING,) = FIGURES["scaling"]


def _study(*points):
    return SweepResult(SCALING, {
        ScalingKey(query, io_nodes, uplink): BandwidthResult(
            mbps=summarize([mbps]), payload_bytes=1
        )
        for query, io_nodes, uplink, mbps in points
    })


class TestScalingStudyContainer:
    def test_at_lookup(self):
        study = _study((5, 4, 1.0, 900.0))
        assert study.at(5, 4, 1.0).mean_mbps == 900.0
        with pytest.raises(KeyError):
            study.at(6, 4, 1.0)

    def test_table_handles_missing_cells(self):
        study = _study((5, 4, 1.0, 900.0), (6, 8, 10.0, 2000.0))
        table = study.format_table()
        assert "Q5@1G" in table and "Q6@10G" in table
        assert "-" in table  # the missing combinations


class TestEnvironmentFactory:
    def test_uplink_override_applied(self):
        config = _environment((4, 4, 2), 4, uplink_gbps=10.0)
        assert config.params.ethernet.uplink_rate == pytest.approx(10e9 / 8)
        # The rest of the cost model is untouched.
        assert config.params.io_node.proxy_rate == pytest.approx(850e6 / 8)

    def test_partition_shape_applied(self):
        config = _environment((4, 4, 4), 8, uplink_gbps=1.0)
        assert config.bluegene.num_psets == 8
        assert config.backend_nodes == 8
