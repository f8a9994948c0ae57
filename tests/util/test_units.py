"""Unit tests for unit conversions and formatting."""

import pytest

from repro.util.units import (
    format_bytes,
    format_rate,
    gbps,
    mbps,
    rate_bps,
)


class TestConversions:
    def test_mbps(self):
        # 920 Mbps = 115 MB/s
        assert mbps(920) == pytest.approx(115e6)

    def test_gbps(self):
        # 1.4 Gbps torus link = 175 MB/s
        assert gbps(1.4) == pytest.approx(175e6)

    def test_rate_bps_inverts_mbps(self):
        assert rate_bps(mbps(920)) == pytest.approx(920e6)


class TestFormatting:
    def test_format_bytes_scales(self):
        assert format_bytes(3_000_000) == "3 MB"
        assert format_bytes(1_000) == "1 KB"
        assert format_bytes(12) == "12 B"
        assert format_bytes(2_500_000_000) == "2.5 GB"

    def test_format_rate_uses_bits(self):
        assert format_rate(mbps(920)) == "920 Mbps"
        assert format_rate(gbps(1.4)) == "1.4 Gbps"
        assert format_rate(100) == "800 bps"
