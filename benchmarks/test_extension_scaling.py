"""Benchmark extension: inbound scaling with partition size (future work).

Answers the paper's open question (section 5): "It remains to be
investigated what happens for large amounts of back-end and I/O nodes."
"""

import pytest

from repro.core.experiments import FIGURES
from repro.core.measurement import run_sweep

(SCALING,) = FIGURES["scaling"]


@pytest.fixture(scope="module")
def study():
    return run_sweep(SCALING, repeats=3, array_count=4)


def test_scaling_regenerates(benchmark):
    result = benchmark.pedantic(
        lambda: run_sweep(
            SCALING, partitions=(((4, 4, 2), 4),), uplinks_gbps=(1.0,), repeats=2,
            array_count=4,
        ),
        iterations=1,
        rounds=3,
    )
    assert result.at(5, 4, 1.0).mean_mbps > 800


def test_scaling_conclusions_hold(study):
    print()
    print(study.format_table())
    # With the testbed's 1 Gbps uplink, the shared switch port is the
    # ceiling: Query 5 stays flat no matter how many I/O nodes exist.
    q5_1g = [study.at(5, size, 1.0).mean_mbps for size in (4, 8, 16)]
    assert max(q5_1g) < 1.05 * min(q5_1g)
    # The spread-host topology (Q6) gets *worse* with partition size at
    # 1 Gbps: more distinct hosts, more ingress coordination overhead —
    # the paper's co-location advice matters more at scale, not less.
    assert study.at(6, 16, 1.0).mean_mbps < study.at(6, 4, 1.0).mean_mbps
    # A 10x uplink removes the ceiling: Q6 then scales with the partition
    # (parallel back-end NICs + parallel I/O nodes), while Q5 stays pinned
    # at its single back-end NIC.
    assert study.at(6, 16, 10.0).mean_mbps > 3 * study.at(6, 4, 10.0).mean_mbps
    assert study.at(5, 16, 10.0).mean_mbps < 1.1 * study.at(5, 4, 10.0).mean_mbps
