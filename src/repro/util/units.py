"""Unit helpers for data sizes and rates.

The paper quotes rates in bits per second (1.4 Gbps torus links, 1 Gbit/s
I/O-node NICs, ~920 Mbps peak inbound) and sizes in bytes (3 MB arrays,
1000-byte buffers).  To avoid the classic bit/byte confusion, the library
keeps one convention internally:

* **sizes** are bytes (plain ``int``),
* **rates** are bytes per (simulated) second (plain ``float``),
* **time** is simulated seconds (plain ``float``).

This module provides the conversion helpers and pretty-printers used at the
API boundary, where figures are reported in Mbps to match the paper.
"""

from __future__ import annotations

KILO = 1_000
MEGA = 1_000_000
GIGA = 1_000_000_000


def mbps(rate_megabits_per_s: float) -> float:
    """Convert a rate in megabits/s to internal bytes/s."""
    return rate_megabits_per_s * MEGA / 8.0


def gbps(rate_gigabits_per_s: float) -> float:
    """Convert a rate in gigabits/s to internal bytes/s."""
    return rate_gigabits_per_s * GIGA / 8.0


def rate_bps(bytes_per_second: float) -> float:
    """Convert an internal bytes/s rate to bits/s (for reporting)."""
    return bytes_per_second * 8.0


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with a human-readable suffix (``3.0 MB``)."""
    value = float(num_bytes)
    for suffix, scale in (("GB", GIGA), ("MB", MEGA), ("KB", KILO)):
        if abs(value) >= scale:
            return f"{value / scale:.6g} {suffix}"
    return f"{value:.6g} B"


def format_rate(bytes_per_second: float) -> str:
    """Render an internal bytes/s rate in bits/s units (``920 Mbps``)."""
    bits = rate_bps(bytes_per_second)
    for suffix, scale in (("Gbps", GIGA), ("Mbps", MEGA), ("Kbps", KILO)):
        if abs(bits) >= scale:
            return f"{bits / scale:.6g} {suffix}"
    return f"{bits:.6g} bps"
