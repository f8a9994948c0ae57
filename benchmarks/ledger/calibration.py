"""Machine-speed probe: what lets a shared box give a steadier op time.

On the 2-shared-core sandbox this benchmark was sized on, the speed of one
and the same interpreter drifts by a factor of 1.0 to 2.2 within seconds
(no steal time is reported; CPU time moves with wall time).  Over 150 s of
back-to-back ``p2p_torus`` rounds, cut into 10 s windows, the sum over
points of the *median* op time spread 12 % (range 38 %) and of the
*fastest* op time 2.5 % (range 11 %; across ten runs of three fresh
processes each, 10 to 32 %) — but the median of ``op time / probe time``,
with this probe run before and after every round, spread 0.8 % (range
4 %).  So the ledger reports

    op time = median over repeats of (op time / round's probe time)
              x NOMINAL_PROBE_S

— the op time on a machine that runs the probe in ``NOMINAL_PROBE_S``,
which is this sandbox at the fastest speed it ever showed.  The scale is a
constant, not the run's own fastest probe, because one fresh process in
four never sees the fast state at all (its fastest probe reads 1.37 ms,
not 1.12 ms) and a run of three such processes would read a fifth slow.

The probe is stdlib-only and runs with the collector off, so no change to
the repository — not to its code, not to the heap it leaves behind — can
move it.  What it cannot follow is interference that hits allocation-heavy
code harder than plain bytecode: ``mqs_scale`` and ``p2p_observed`` keep a
spread of 4 to 8 % in the noisiest quarter-hours (README, "Estimator").
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, List, Tuple

#: The probe's time on the sizing sandbox (2 shared cores of a 2.1 GHz
#: Xeon, CPython 3.11) at its fastest; every reported op time is scaled to it.
NOMINAL_PROBE_S = 1.12e-3

_PROCESSES = 300
_TICKS = 8


def _kernel() -> None:
    """A miniature event loop: generator resumes, heap traffic, dict writes.

    About 1.2 ms of the instruction mix the simulator itself runs.
    """
    state: Dict[int, Tuple[int, float]] = {}

    def process(index: int):
        now = 0.0
        for tick in range(_TICKS):
            now += 1.0 + (index % 7) * 0.01
            state[index] = (tick, now)
            yield now

    processes = [process(index) for index in range(_PROCESSES)]
    heap = [(next(process), index) for index, process in enumerate(processes)]
    heapq.heapify(heap)
    while heap:
        _, index = heapq.heappop(heap)
        try:
            heapq.heappush(heap, (processes[index].send(None), index))
        except StopIteration:
            pass


class Probe:
    """Times the kernel; remembers every reading and the fastest single run."""

    def __init__(self, runs: int) -> None:
        self.runs = runs
        self.fastest = float("inf")
        self.readings: List[float] = []

    def __call__(self) -> float:
        """Mean kernel time over ``runs`` runs, in seconds."""
        total = 0.0
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.runs):
                started = time.perf_counter()
                _kernel()
                elapsed = time.perf_counter() - started
                total += elapsed
                if elapsed < self.fastest:
                    self.fastest = elapsed
        finally:
            if collecting:
                gc.enable()
        reading = total / self.runs
        self.readings.append(reading)
        return reading
