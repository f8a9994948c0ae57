"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.experiments.claims import CLAIMS
from repro.core.measurement import run_sweep
from repro.engine.objects import END_OF_STREAM
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.sim import Simulator, Store


@pytest.fixture(scope="session")
def quick():
    """`run_sweep(row, **row.quick, repeats=1)`, measured once per row per session."""
    results = {}

    def measured(sweep):
        if sweep.point not in results:
            results[sweep.point] = run_sweep(sweep, **sweep.quick, repeats=1)
        return results[sweep.point]

    return measured


@pytest.fixture(scope="session")
def holds(quick):
    """Evaluate one ``CLAIMS`` row, by name, on the quick sweeps it reads."""
    claims = {claim.name: claim for claim in CLAIMS}

    def check(name):
        claim = claims[name]
        results = [quick(sweep) for sweep in claim.sweeps]
        assert claim.holds(*results), "\n\n".join(r.format_table() for r in results)

    return check


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def env():
    """A fresh default environment (paper-shaped: 4 psets, 4 be nodes)."""
    return Environment(EnvironmentConfig())


@pytest.fixture
def quiet_env():
    """An environment with zero cost jitter, for exact-time assertions."""
    config = EnvironmentConfig()
    params = config.params.with_overrides(jitter=0.0)
    return Environment(
        EnvironmentConfig(
            bluegene=config.bluegene,
            backend_nodes=config.backend_nodes,
            frontend_nodes=config.frontend_nodes,
            params=params,
            seed=0,
        )
    )


def drain_store(sim: Simulator, store: Store, limit: int = 10_000):
    """Run a collector process returning all objects up to END_OF_STREAM."""

    def collector():
        items = []
        for _ in range(limit):
            obj = yield store.get()
            if obj is END_OF_STREAM:
                return items
            items.append(obj)
        raise AssertionError("collector hit its safety limit")

    return sim.process(collector(), name="test-collector")


def feed_store(sim: Simulator, store: Store, items):
    """Run a producer process pushing items then END_OF_STREAM."""

    def producer():
        for item in items:
            yield store.put(item)
        yield store.put(END_OF_STREAM)

    return sim.process(producer(), name="test-producer")


def busiest_of(obs, prefix: str = ""):
    """(name, busy seconds) of the busiest resource whose name starts with
    ``prefix``, ranked by :func:`repro.obs.health.utilization_leader`."""
    from repro.obs.health import utilization_leader

    names = [
        series[len("resource.busy["):-1]
        for series in obs.metrics.series
        if series.startswith("resource.busy[")
    ]
    return utilization_leader(
        {name: obs.resource_busy_time(name) for name in names if name.startswith(prefix)}
    )


def run_operator(env: Environment, operator_cls, inputs, settings=None, **kwargs):
    """Instantiate and run one operator on the default environment.

    ``inputs`` is a list of item-lists, one per input stream.  Returns the
    list of objects the operator emitted before END_OF_STREAM.
    """
    from repro.engine.context import ExecutionContext

    settings = settings or ExecutionSettings()
    node = env.node("bg", 0)
    ctx = ExecutionContext(env, node, settings)
    in_stores = [Store(env.sim, name=f"in{i}") for i in range(len(inputs))]
    out_store = Store(env.sim, name="out")
    operator = operator_cls(ctx, in_stores, out_store, **kwargs)
    for store, items in zip(in_stores, inputs):
        feed_store(env.sim, store, items)
    op_process = env.sim.process(operator.run(), name="op-under-test")
    # Re-raise the operator's own exception rather than the kernel's
    # unhandled-failure wrapper, so tests can assert on error types.
    op_process.defuse()
    collector = drain_store(env.sim, out_store)
    env.sim.run()
    if op_process.triggered and not op_process.ok:
        raise op_process.value
    assert collector.ok, f"collector failed: {collector.value!r}"
    return collector.value
