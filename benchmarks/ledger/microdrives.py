"""Layer micro-drives and model context: one layer at a time, public API only.

Each drive times ``sim.run()`` (or a plain loop) over a fixed amount of
work on one layer and reports host microseconds per unit at nominal
machine speed: the median over ``repeats`` of the drive's time in probe
times (calibration.py), as for the ops.  The model context
runs the two points for which the repo holds a reference value from the
paper; beyond them the model is unvalidated and no error is given.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, Tuple

from repro.core.experiments.fig8 import BALANCED, SEQUENTIAL, merge_query
from repro.coordinator.deployer import Deployer
from repro.engine.marshal import StreamDemarshaller, StreamMarshaller
from repro.engine.objects import SyntheticArray
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import BACKEND, BLUEGENE, EnvironmentConfig, shared_template
from repro.net.message import WireBuffer
from repro.scsql.plan import compile_plan
from repro.sim import Resource, Simulator, Store, Timeout

from calibration import NOMINAL_PROBE_S, Probe
from workloads import inbound_point

#: The paper's quoted figures (sections 3.2 and 5).
PAPER_Q5_PEAK_MBPS = 920.0
PAPER_MERGE_GAIN = 1.60

_CONFIG = EnvironmentConfig()


class _Bench:
    """Runs a drive ``repeats`` times between speed probes."""

    def __init__(self, probe: Probe, repeats: int) -> None:
        self.probe = probe
        self.repeats = repeats

    def __call__(self, drive: Callable[[], Tuple[float, int]]) -> float:
        """Microseconds per unit of ``drive`` (-> seconds, units), nominal speed."""
        readings = []
        before = self.probe()
        for _ in range(self.repeats):
            seconds, units = drive()
            after = self.probe()
            readings.append(seconds / units / ((before + after) / 2))
            before = after
        return statistics.median(readings) * NOMINAL_PROBE_S * 1e6


def _timed_run(sim: Simulator) -> float:
    started = time.perf_counter()
    sim.run()
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
def _timer_chains(scheduler: str, chains: int, ticks: int) -> Tuple[float, int]:
    """Self-rescheduling Timeout chains ticking in same-instant bursts."""
    sim = Simulator(scheduler=scheduler)
    remaining = [ticks] * chains

    def arm(index: int) -> None:
        def fire(event: object) -> None:
            remaining[index] -= 1
            if remaining[index]:
                Timeout(sim, 1.0).callbacks.append(fire)
        Timeout(sim, 1.0).callbacks.append(fire)

    for index in range(chains):
        arm(index)
    seconds = _timed_run(sim)
    return seconds, sim.events_dispatched


def _store_pingpong(rounds: int) -> Tuple[float, int]:
    """Two processes handing one token back and forth through two Stores."""
    sim = Simulator()
    ping, pong = Store(sim, capacity=1), Store(sim, capacity=1)

    def player(inbox: Store, outbox: Store, serve: bool):
        if serve:
            yield outbox.put(0)
        for _ in range(rounds):
            token = yield inbox.get()
            yield outbox.put(token)

    sim.process(player(pong, ping, True))
    sim.process(player(ping, pong, False))
    seconds = _timed_run(sim)
    return seconds, 2 * rounds


def _resource_cycles(contenders: int, cycles: int) -> Tuple[float, int]:
    """``contenders`` processes cycling one capacity-1 Resource."""
    sim = Simulator()
    resource = Resource(sim, capacity=1)

    def contender():
        for _ in range(cycles):
            with resource.request() as request:
                yield request
                yield sim.timeout(1.0)

    for _ in range(contenders):
        sim.process(contender())
    seconds = _timed_run(sim)
    return seconds, contenders * cycles


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------
def _channel_send(
    source: Tuple[str, int], destination: Tuple[str, int], buffers: int
) -> Tuple[float, int]:
    """``buffers`` sends through whatever carrier ``env.open_channel`` picks."""
    env = shared_template(_CONFIG).fork(seed=0)
    inbox = Store(env.sim)
    src, dst = env.node(*source), env.node(*destination)
    channel = env.open_channel(src, dst, inbox, "micro")
    nbytes = channel.preferred_buffer_bytes or 1000

    def sender():
        yield from channel.open()
        for _ in range(buffers):
            yield from channel.send(WireBuffer.data("micro", src.node_id, nbytes, ()))
        yield from channel.close()

    env.sim.process(sender())
    seconds = _timed_run(env.sim)
    if inbox.size != buffers:
        raise RuntimeError(f"micro-drive delivered {inbox.size} of {buffers} buffers")
    return seconds, buffers


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def _marshal_roundtrip(objects: int) -> Tuple[float, int]:
    """3000-byte arrays through 1000-byte buffers and back (3 fragments each)."""
    marshaller = StreamMarshaller("micro", "bg:0", 1000)
    demarshaller = StreamDemarshaller()
    started = time.perf_counter()
    for sequence in range(objects):
        for buffer in marshaller.add(SyntheticArray(3000, sequence)):
            demarshaller.accept(buffer)
    seconds = time.perf_counter() - started
    if demarshaller.objects_out != objects:
        raise RuntimeError("marshal micro-drive lost objects")
    return seconds, objects


def run_microdrives(smoke: bool, probe: Probe) -> Dict[str, float]:
    """Every micro-drive metric; ``smoke`` shrinks the work, not the set."""
    scale, bench = (8, _Bench(probe, 1)) if smoke else (1, _Bench(probe, 3))
    chains, ticks = 512, 40 // scale
    buffers = 1600 // scale
    one_hop = bench(lambda: _channel_send((BLUEGENE, 1), (BLUEGENE, 0), buffers))
    five_hops = bench(lambda: _channel_send((BLUEGENE, 26), (BLUEGENE, 0), buffers))
    return {
        "sim.timer_us_per_event": bench(lambda: _timer_chains("calendar", chains, ticks)),
        "sim.timer_heap_us_per_event": bench(lambda: _timer_chains("heap", chains, ticks)),
        "sim.store_handoff_us": bench(lambda: _store_pingpong(8000 // scale)),
        "sim.resource_cycle_us": bench(lambda: _resource_cycles(4, 2000 // scale)),
        "net.torus.send_us_per_buffer": one_hop,
        "net.torus.send_us_per_hop": (five_hops - one_hop) / 4,
        "net.ethernet.send_us_per_buffer":
            bench(lambda: _channel_send((BACKEND, 0), (BLUEGENE, 0), buffers)),
        "engine.marshal_us_per_object": bench(lambda: _marshal_roundtrip(8000 // scale)),
    }


# ----------------------------------------------------------------------
# Model context
# ----------------------------------------------------------------------
def _simulated_mbps(text: str, payload_bytes: int, settings: ExecutionSettings,
                    env_seed: int) -> float:
    env = shared_template(_CONFIG).fork(seed=env_seed)
    report = Deployer(env).run(compile_plan(text, settings=settings), settings=settings)
    return payload_bytes * 8.0 / report.duration / 1e6


def run_model_context(env_seed: int) -> Dict[str, float]:
    """Error against the only two reference values the repo holds."""
    q5 = inbound_point(5, 4)
    q5_mbps = _simulated_mbps(q5.text, q5.payload_bytes, q5.settings, env_seed)
    settings = ExecutionSettings(mpi_buffer_bytes=100_000, double_buffering=True)
    payload = 2 * 3_000_000 * 8
    sequential, balanced = (
        _simulated_mbps(merge_query(3_000_000, 8, x, y), payload, settings, env_seed)
        for x, y in (SEQUENTIAL, BALANCED)
    )
    return {
        "model.q5_peak_err_pct": (q5_mbps / PAPER_Q5_PEAK_MBPS - 1.0) * 100.0,
        "model.merge_gain_err_pct":
            (balanced / sequential / PAPER_MERGE_GAIN - 1.0) * 100.0,
    }
