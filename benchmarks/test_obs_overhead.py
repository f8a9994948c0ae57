"""Observability overhead: kernel throughput with and without instrumentation.

The contract is near-zero cost when disabled — every hook site is one
attribute check on the shared null hub.  These benchmarks quantify it, and
show what enabling metrics or full tracing costs (which is allowed to be
substantial: it is opt-in).
"""

from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig6 import point_to_point_query
from repro.core.measurement import measure_query_bandwidth
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs import Instrumentation
from repro.obs.flow import NULL_FLOWS
from repro.obs.tracer import NULL_TRACER
from repro.scsql.plan import compile_plan
from repro.sim import Resource, Simulator, Store

ITEMS = 5000


def _pingpong(sim):
    store = Store(sim, capacity=8, name="box")
    device = Resource(sim, capacity=1, name="dev")

    def producer():
        for i in range(ITEMS):
            yield store.put(i)

    def consumer():
        for _ in range(ITEMS):
            yield store.get()
            if _ % 100 == 0:
                with device.request() as req:
                    yield req
                    yield sim.timeout(0.001)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    return sim


def test_kernel_throughput_uninstrumented(benchmark):
    """Baseline: the shared NULL_OBS hub (the default on every simulator)."""
    benchmark(lambda: _pingpong(Simulator()))


def test_kernel_throughput_metrics_only(benchmark):
    """Metrics enabled, tracing off — the cheap always-on-able mode."""
    benchmark(lambda: _pingpong(Simulator(obs=Instrumentation(tracer=NULL_TRACER))))


def test_kernel_throughput_full_tracing(benchmark):
    """Metrics plus a full timeline trace — the heavyweight opt-in."""
    benchmark(lambda: _pingpong(Simulator(obs=Instrumentation())))


# ----------------------------------------------------------------------
# Flow-tracing overhead (PR 2): the flow hooks live in the engine drivers
# and network models, so they are exercised with a real query run, not a
# kernel ping-pong.  Disabled flows must stay within noise of PR 1's
# metrics-only instrumentation: each hook site is one attribute access
# plus a falsy ``enabled`` check on the shared NULL_FLOWS singleton.
# ----------------------------------------------------------------------
def _measured_query(observe):
    return measure_query_bandwidth(
        point_to_point_query(20_000, 8),
        payload_bytes=20_000 * 8,
        settings=ExecutionSettings(mpi_buffer_bytes=20_000),
        repeats=1,
        observe=observe,
    )


def test_query_uninstrumented(benchmark):
    """Baseline: no Instrumentation at all (NULL_OBS hub)."""
    benchmark(lambda: _measured_query("none"))


def test_query_metrics_flows_disabled(benchmark):
    """PR-1 shape: metrics on, flow tracing explicitly off.

    Comparing against ``test_query_flows_enabled`` isolates the cost of
    the recorder itself; comparing against ``test_query_uninstrumented``
    bounds the cost of the disabled hooks.
    """
    benchmark(lambda: _measured_query("metrics"))


def test_query_flows_enabled(benchmark):
    """Full flow tracing: per-hop records on every buffer (opt-in)."""
    benchmark(lambda: _measured_query("flows"))


# ----------------------------------------------------------------------
# Live-telemetry overhead (PR 7): the sampler piggybacks on on_step, so
# even *enabled* it schedules zero simulation events; disabled it is one
# `live.enabled` attribute check on the shared NULL_LIVE singleton,
# inside the hooks the earlier rows already measure.  The functional
# zero-extra-events guarantee is pinned in tests/obs/test_live.py;
# these rows quantify the wall-time side: metrics-only (live disabled)
# must sit within noise of the PR-1 metrics row, and the enabled
# sampler's cost scales with windows closed, not events processed.
# ----------------------------------------------------------------------
def _live_sampler():
    from repro.obs.live import LiveSampler

    return LiveSampler(window=0.002)


def test_kernel_throughput_live_disabled(benchmark):
    """Metrics hub with the null live sampler (the default): the new
    `live.enabled` check must not move the metrics-only row."""
    benchmark(lambda: _pingpong(
        Simulator(obs=Instrumentation(tracer=NULL_TRACER, flows=NULL_FLOWS))
    ))


def test_query_live_sampler_enabled(benchmark):
    """Windowed sampling + a latency list append on every completed flow (opt-in).

    A live sampler is not an observation level (nothing sweeps with one), so
    this row drives the same query on its own environment, as ``repro top``
    does.
    """
    settings = ExecutionSettings(mpi_buffer_bytes=20_000)
    template = shared_template(EnvironmentConfig())

    def run():
        # Compiled per call, like the measured rows above.
        plan = compile_plan(point_to_point_query(20_000, 8), settings=settings)
        obs = Instrumentation(tracer=NULL_TRACER, live=_live_sampler())
        return Deployer(template.fork(obs=obs)).run(plan, settings=settings)

    benchmark(run)
