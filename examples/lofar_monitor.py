#!/usr/bin/env python3
"""A LOFAR-flavoured continuous monitoring query.

The paper's motivation: LOFAR antennas "produce raw data streams that
arrive at the central processing facilities at a rate, which is too high
for the data to be saved on disk.  Furthermore, advanced numerical
computations are performed on the streams in real time to detect
astronomical events as they occur."

This example builds a *continuous* (unbounded) monitoring query over a set
of simulated antenna power streams: each antenna's stream is window-
averaged on its own BlueGene compute node; the per-antenna averages are
merged and window-maximized, so the client manager sees one "loudest
antenna power" reading per round — an event-detection trigger.  The query
never ends on its own; it is stopped by user intervention (``stop_after``),
the paper's section 2.2 termination path.

Run:  python examples/lofar_monitor.py [n_antennas]
"""

import itertools
import sys

import numpy as np

from repro import SCSQSession

WINDOW = 16          # samples per per-antenna average
SIM_SECONDS = 0.25   # how long to let the continuous query run
BURST_ANTENNA = 2    # this antenna carries a transient "event"


def antenna_source(index: int, seed: int = 0):
    """An endless stream of power samples; one antenna has a burst."""

    def factory():
        rng = np.random.default_rng(seed + index)

        def generate():
            for sample in itertools.count():
                power = 10.0 + rng.normal(0, 0.5)
                if index == BURST_ANTENNA and 400 <= sample < 600:
                    power += 25.0  # the astronomical event
                yield float(power)

        return generate()

    return factory


def monitoring_query(n_antennas: int) -> str:
    """One CQ: per-antenna window averages, merged, window-maximized.

    The per-antenna subqueries are generated programmatically — SCSQL text
    is data, and the paper's own queries are built the same way (one
    conjunct per stream process).
    """
    decls = ", ".join(f"sp w{i}" for i in range(n_antennas))
    conjuncts = " and ".join(
        f"w{i}=sp(winagg(receiver('antenna-{i}'), 'avg', {WINDOW}, {WINDOW}), 'bg')"
        for i in range(n_antennas)
    )
    merge_set = "{" + ", ".join(f"w{i}" for i in range(n_antennas)) + "}"
    return (
        f"select winagg(merge({merge_set}), 'max', {n_antennas}, {n_antennas}) "
        f"from {decls} where {conjuncts};"
    )


def scsql_queries():
    """The example's SCSQL statements in session order; the test suite
    verifies them statically (``tests/analysis/test_cli.py``)."""
    return [("monitor-n6", monitoring_query(6))]


def main() -> None:
    n_antennas = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    session = SCSQSession()
    for i in range(n_antennas):
        session.register_source(f"antenna-{i}", antenna_source(i))
    query = monitoring_query(n_antennas)
    print(query)
    print()
    report = session.execute(query, stop_after=SIM_SECONDS)

    assert report.stopped, "a continuous query only ends by intervention"
    readings = report.result
    print(f"{len(readings)} monitoring rounds in {SIM_SECONDS}s simulated time")
    baseline = float(np.median(readings))
    events = [r for r in readings if r > baseline + 10]
    print(f"baseline loudest-antenna power ~{baseline:.1f}; "
          f"{len(events)} rounds flagged as events")
    for reading in readings[:5]:
        print(f"  round reading: {reading:.2f}")
    if events:
        print(f"  strongest event reading: {max(events):.2f} "
              f"(antenna {BURST_ANTENNA}'s burst)")


if __name__ == "__main__":
    main()
