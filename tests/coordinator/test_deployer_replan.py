"""Property tests: kill/replan cycles keep the environment deployable.

The fault-injection harness leans on ``Deployer`` teardown + replacement
deployment; these properties pin the invariants it needs: however many
times a deployment's compute node is killed and the plan replanned around
the damage, no node is ever over-subscribed (the static verifier stays
clean of SCSQ103/SCSQ201), replacements never land on failed nodes, and a
final teardown returns the environment to a fully deployable state.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.query_stream import SMOKE_SCALE, build_query
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import BLUEGENE, Environment, EnvironmentConfig
from repro.hardware.node import NodeKind
from repro.scsql.plan import compile_plan

# Source-free deck query: deployable without external receiver registration.
QUERY_TEXT = build_query("grep", 0, SMOKE_SCALE).query


def _bg_compute_nodes(deployment):
    return sorted(
        {
            rp.node.index
            for rp in deployment.rps.values()
            if rp.node.cluster == BLUEGENE and rp.node.kind is NodeKind.BG_COMPUTE
        }
    )


def _verified_deploy(deployer, plan, rp_prefix=""):
    """The explicit lifecycle: place, verify (errors raise), deploy."""
    placed = deployer.place(plan)
    report = deployer.verify(placed, label=rp_prefix.rstrip("/") or "query")
    report.raise_if_failed()
    return deployer.deploy(placed, rp_prefix=rp_prefix), report


def _assert_no_oversubscription(env):
    for cndb in env.cndbs.values():
        for node in cndb.all_nodes():
            limit = node.capabilities.max_processes
            if limit is not None:
                assert node.running_processes <= limit, node.node_id
            assert node.running_processes >= 0, node.node_id


@given(seed=st.integers(0, 2**16), kills=st.integers(1, 5))
@settings(max_examples=10, deadline=None)
def test_kill_replan_cycles_never_oversubscribe(seed, kills):
    env = Environment(EnvironmentConfig())
    deployer = Deployer(env)
    plan = compile_plan(QUERY_TEXT)
    deployment, _ = _verified_deploy(deployer, plan)
    rng = random.Random(seed)
    killed = []
    for cycle in range(kills):
        victims = _bg_compute_nodes(deployment)
        assert victims, "the deck query always occupies a compute node"
        index = rng.choice(victims)
        deployment.teardown()
        env.bluegene.node(index).fail()
        killed.append(index)

        # The static verifier must agree the replan is sound before it runs.
        deployment, report = _verified_deploy(deployer, plan, f"r{cycle}/")
        codes = {d.code for d in report.diagnostics}
        assert not codes & {"SCSQ103", "SCSQ108", "SCSQ201"}, report.format_text()
        for rp in deployment.rps.values():
            assert not rp.node.failed, f"replacement placed on dead {rp.node.node_id}"
        assert not set(_bg_compute_nodes(deployment)) & set(killed)
        _assert_no_oversubscription(env)

    # Run the survivor to completion: the environment still works end to end.
    report = deployment.run()
    assert report.result == [build_query("grep", 0, SMOKE_SCALE).expected_result]

    # After the final teardown every slot is back and a fresh deploy works.
    deployment.teardown()
    _assert_no_oversubscription(env)
    final = deployer.verify(plan)
    assert final.ok(), final.format_text()


@given(seed=st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_teardown_is_idempotent_and_restores_cursors(seed):
    env = Environment(EnvironmentConfig())
    deployer = Deployer(env)
    plan = compile_plan(QUERY_TEXT)
    cursors = {name: cndb._rr_cursor for name, cndb in env.cndbs.items()}
    deployment, _ = _verified_deploy(deployer, plan)
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        deployment.teardown()
    _assert_no_oversubscription(env)
    for name, cndb in env.cndbs.items():
        assert cndb._rr_cursor == cursors[name]
    for node in (n for c in env.cndbs.values() for n in c.all_nodes()):
        assert node.running_processes == 0
