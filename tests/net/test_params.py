"""Unit tests for the network cost-model parameters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.params import (
    CpuCostParams,
    IONodeParams,
    NetworkParams,
    TorusParams,
)
from repro.util.units import gbps


class TestTorusParams:
    def test_packet_count_pads_to_one(self):
        params = TorusParams()
        assert params.packet_count(1) == 1
        assert params.packet_count(100) == 1
        assert params.packet_count(1024) == 1
        assert params.packet_count(1025) == 2
        assert params.packet_count(0) == 1

    def test_packet_time_matches_link_rate(self):
        params = TorusParams()
        assert params.packet_time() == pytest.approx(1024 / gbps(1.4))

    def test_wire_time_quantized(self):
        params = TorusParams()
        assert params.wire_time(100) == params.wire_time(1024)
        assert params.wire_time(2048) == pytest.approx(2 * params.packet_time())

    def test_cache_factor_flat_below_knee(self):
        params = TorusParams()
        assert params.cache_factor(100) == 1.0
        assert params.cache_factor(1000) == 1.0
        assert params.cache_factor(1001) > 1.0

    def test_cache_factor_saturates(self):
        params = TorusParams()
        assert params.cache_factor(100_000_000) == pytest.approx(
            1.0 + params.cache_penalty, rel=0.01
        )

    def test_receive_cheaper_than_handling(self):
        params = TorusParams()
        for size in (100, 1000, 10_000, 1_000_000):
            assert params.receive_time(size) < params.handling_time(size)

    @given(st.integers(1, 10_000_000))
    def test_cache_factor_bounded_and_monotone_structure(self, nbytes):
        params = TorusParams()
        factor = params.cache_factor(nbytes)
        assert 1.0 <= factor <= 1.0 + params.cache_penalty

    @given(a=st.integers(1, 1_000_000), b=st.integers(1, 1_000_000))
    def test_handling_time_monotone_in_size(self, a, b):
        params = TorusParams()
        small, large = min(a, b), max(a, b)
        assert params.handling_time(small) <= params.handling_time(large) + 1e-12


class TestCpuCostParams:
    def test_marshal_time_has_fixed_and_linear_parts(self):
        params = CpuCostParams()
        base = params.marshal_time(0)
        assert base == pytest.approx(params.per_buffer_overhead)
        assert params.marshal_time(1_000_000) == pytest.approx(
            params.per_buffer_overhead + 1_000_000 / params.marshal_rate
        )

    def test_demarshal_symmetric_by_default(self):
        params = CpuCostParams()
        assert params.demarshal_time(5000) == pytest.approx(params.marshal_time(5000))


class TestIONodeParams:
    def test_defaults_reflect_published_envelope(self):
        params = IONodeParams()
        assert params.tree_rate == pytest.approx(gbps(2.8))
        # Single receiver tops out below the I/O node proxy (observation 2).
        assert params.compute_receive_rate < params.proxy_rate


class TestNetworkParams:
    def test_with_overrides_replaces_sections(self):
        params = NetworkParams()
        modified = params.with_overrides(torus=TorusParams(link_rate=gbps(2.8)))
        assert modified.torus.link_rate == pytest.approx(gbps(2.8))
        assert params.torus.link_rate == pytest.approx(gbps(1.4))
        assert modified.cpu is params.cpu
