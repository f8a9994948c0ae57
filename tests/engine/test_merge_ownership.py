"""A merge's forwarders belong to its RP.

``Merge.run`` starts one ``merge-in[i]`` process per input.  They are
started through the RP's :class:`~repro.engine.context.ExecutionContext`,
so the RP terminates them with its own processes, its census counts them,
and a forwarder's crash fails the query with the forwarder's own error.
Before, they were started straight on the simulator: a torn-down query left
them alive and parked on their input stores while the sanitizer found
nothing, and a crash ended ``run()`` as ``SimulationError("unhandled
failure in simulation: ...")``.
"""

from __future__ import annotations

import pytest

from repro.analysis import sanitize
from repro.coordinator.deployer import Deployer
from repro.core.experiments.fig8 import merge_query
from repro.engine.operators.merge import Merge
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.sim import Interrupt
from repro.sim.introspect import waiters_of
from repro.util.errors import QueryExecutionError


def _deployed():
    env = Environment(EnvironmentConfig())
    deployer = Deployer(env)
    plan = compile_plan(merge_query(3_000_000, 8, 1, 2))
    return env, deployer.deploy(deployer.place(plan))


def _merges(deployment):
    return [
        (rp, op) for rp in deployment.rps.values() for op in rp.operators
        if isinstance(op, Merge)
    ]


def _stopped_and_torn_down():
    """Stop the merge query mid-stream, tear it down and drain; returns
    the deployment, the sanitizer scope that audited it and the merge RP's
    forwarders as they were while the query ran (a joined RP lets go of
    its ended processes)."""
    with sanitize.sanitizer(label="merge-ownership", strict=False) as scope:
        env, deployment = _deployed()
        ((rp, _merge),) = _merges(deployment)
        forwarders = []

        def look():
            yield env.sim.timeout(0.0015)  # started at 0.001, stopped at 0.002
            forwarders.extend(
                p for p in rp.ctx.processes if p.name.startswith("merge-in")
            )

        env.sim.process(look(), name="look")
        deployment.run(stop_after=0.002)
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    return deployment, scope, forwarders


@pytest.mark.no_sanitize
def test_teardown_stops_the_forwarders():
    deployment, scope, forwarders = _stopped_and_torn_down()
    assert scope.audited == 1
    assert scope.report.diagnostics == []
    ((rp, merge),) = _merges(deployment)
    parked = [
        process.name
        for store in merge.inputs
        for event in store._getters
        for process in waiters_of(event)
        if process.is_alive
    ]
    assert parked == []
    assert [p.name for p in forwarders] == ["merge-in[0]", "merge-in[1]"]
    assert not any(p.is_alive for p in forwarders)
    assert rp.live_processes() == []


def test_the_census_counts_the_forwarders():
    env, deployment = _deployed()
    deployment.start()
    env.sim.run(until=0.001)
    ((rp, _merge),) = _merges(deployment)
    live = [p.name for p in rp.live_processes()]
    assert {"merge-in[0]", "merge-in[1]"} <= set(live)
    deployment.teardown()
    env.sim.run()
    assert rp.live_processes() == []


def test_a_forwarder_crash_fails_the_query_with_its_own_error(monkeypatch):
    def crash(self, obj):
        raise QueryExecutionError("injected forwarder failure")

    monkeypatch.setattr(Merge, "emit", crash)
    env, deployment = _deployed()
    with pytest.raises(QueryExecutionError, match="injected forwarder failure"):
        deployment.run()


@pytest.mark.no_sanitize
def test_a_forwarder_teardown_cannot_stop_is_reported(monkeypatch):
    """Mutation check: a forwarder that swallows its termination interrupt
    survives the teardown of a running query, and the census reports it
    as ``SAN201``."""

    def stubborn(self, store, state, done):
        while True:
            try:
                yield store.get()
            except Interrupt:
                continue

    monkeypatch.setattr(Merge, "_forward", stubborn)
    with sanitize.sanitizer(label="merge-ownership", strict=False) as scope:
        env, deployment = _deployed()
        deployment.start()
        env.sim.run(until=0.001)
        deployment.teardown()
        env.sim.run()
        sanitize.assert_quiescent(env, raise_on_findings=False)
    leaked = sorted(
        d.message.split("'")[1] for d in scope.report.diagnostics if d.code == "SAN201"
    )
    assert leaked == ["merge-in[0]", "merge-in[1]"]
