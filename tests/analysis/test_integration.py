"""Verification wired into the deployment path.

``Deployer.verify`` / ``deploy(verify=...)`` / ``MultiQuerySession(verify=
...)`` gate deployments on the static verifier, and the placement resolver
rejects explicit allocations naming absent nodes with a typed error.
"""

import pytest

from repro.coordinator.allocation import NaiveSelector
from repro.coordinator.deployer import Deployer
from repro.coordinator.resolver import placement_failure, resolve_placement
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.util.errors import PlanVerificationError, QueryExecutionError

CLEAN = (
    "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 1)"
)
PINNED_NODE_3 = (
    "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 3)"
)
ABSENT_NODE = (
    "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 999)"
)
CROSS_PSET = (
    "select extract(b) from sp a, sp b "
    "where b=sp(count(extract(a)), 'bg', 0) and a=sp(gen_array(10,5), 'bg', 8)"
)


def fresh_deployer() -> Deployer:
    return Deployer(Environment(EnvironmentConfig()))


class TestResolveAllocations:
    def test_absent_explicit_node_raises_typed_error(self):
        env = Environment(EnvironmentConfig())
        graph = compile_plan(ABSENT_NODE).graph.instantiate()
        with pytest.raises(PlanVerificationError) as exc_info:
            raise placement_failure(resolve_placement(graph, env, NaiveSelector())[1])
        assert "999" in str(exc_info.value)
        assert "'bg'" in str(exc_info.value)
        assert [d.code for d in exc_info.value.diagnostics] == ["SCSQ102"]

    def test_error_names_every_missing_node(self):
        env = Environment(EnvironmentConfig())
        query = (
            "select count(merge({a,b})) from sp a, sp b "
            "where a=sp(gen_array(10,5), 'bg', 40) "
            "and b=sp(gen_array(10,5), 'bg', 41)"
        )
        graph = compile_plan(query).graph.instantiate()
        with pytest.raises(PlanVerificationError) as exc_info:
            raise placement_failure(resolve_placement(graph, env, NaiveSelector())[1])
        assert "40" in str(exc_info.value)

    def test_deploy_of_absent_node_fails_before_any_rp_starts(self):
        deployer = fresh_deployer()
        with pytest.raises(PlanVerificationError):
            deployer.deploy(deployer.place(compile_plan(ABSENT_NODE)))
        # Nothing was allocated: the clean plan still deploys.
        deployer.deploy(deployer.place(compile_plan(CLEAN)))


class TestDeployerVerify:
    def test_verify_reports_against_live_occupancy(self):
        deployer = fresh_deployer()
        clean = deployer.verify(compile_plan(PINNED_NODE_3))
        assert clean.ok() and clean.diagnostics == []
        deployer.env.cndb("bg").node(3).acquire()
        taken = deployer.verify(compile_plan(PINNED_NODE_3))
        assert [d.code for d in taken.diagnostics] == ["SCSQ201"]

    def test_deploy_verify_warn_blocks_errors_only(self):
        deployer = fresh_deployer()
        # Warnings pass in "warn" mode...
        deployment = deployer.deploy(
            deployer.place(compile_plan(CROSS_PSET)), verify="warn"
        )
        deployment.teardown()
        # ...errors do not.
        deployer.env.cndb("bg").node(3).acquire()
        with pytest.raises(PlanVerificationError) as exc_info:
            deployer.deploy(
                deployer.place(compile_plan(PINNED_NODE_3)), verify="warn"
            )
        assert any(d.code == "SCSQ201" for d in exc_info.value.diagnostics)

    def test_deploy_verify_strict_blocks_warnings(self):
        deployer = fresh_deployer()
        with pytest.raises(PlanVerificationError) as exc_info:
            deployer.deploy(
                deployer.place(compile_plan(CROSS_PSET)), verify="strict"
            )
        assert any(d.code == "SCSQ301" for d in exc_info.value.diagnostics)

    def test_deploy_rejects_unknown_verify_mode(self):
        deployer = fresh_deployer()
        with pytest.raises(ValueError, match="verify"):
            deployer.deploy(
                deployer.place(compile_plan(CLEAN)), verify="paranoid"
            )

    def test_run_with_verify_still_executes(self):
        report = fresh_deployer().run(compile_plan(CLEAN), verify="warn")
        assert report.scalar_result == 5


class TestMultiQuerySessionVerify:
    def test_double_allocation_across_queries_is_caught(self):
        session = MultiQuerySession(verify="warn")
        session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        with pytest.raises(PlanVerificationError) as exc_info:
            session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        assert any(d.code == "SCSQ201" for d in exc_info.value.diagnostics)
        session.teardown()

    def test_disjoint_queries_run_verified(self):
        session = MultiQuerySession(verify="strict")
        session.submit(compile_plan(CLEAN), payload_bytes=50, label="left")
        session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50, label="right")
        result = session.run()
        assert result["left"].report.scalar_result == 5
        assert result["right"].report.scalar_result == 5
        session.teardown()

    def test_rejects_unknown_verify_mode(self):
        with pytest.raises(QueryExecutionError, match="verify"):
            MultiQuerySession(verify="always")

    def test_unverified_session_keeps_legacy_behaviour(self):
        # verify=None: the second submit fails at allocation time instead,
        # with the historical (untyped) error.
        from repro.util.errors import AllocationError

        session = MultiQuerySession()
        session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        with pytest.raises(AllocationError):
            session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        session.teardown()


class TestSweepFailFast:
    def test_measure_points_rejects_malformed_point(self):
        from repro.core.measurement import PointSpec, measure_points

        specs = [
            PointSpec(key="bad", query=ABSENT_NODE, payload_bytes=50),
        ]
        with pytest.raises(PlanVerificationError) as exc_info:
            measure_points(specs, repeats=1)
        assert "bad" in str(exc_info.value.args[0]) or exc_info.value.diagnostics

    def test_measure_query_bandwidth_verifies_in_process_path(self):
        from repro.core.measurement import measure_query_bandwidth

        with pytest.raises(PlanVerificationError):
            measure_query_bandwidth(ABSENT_NODE, payload_bytes=50, repeats=1)

    def test_clean_measurement_still_runs(self):
        from repro.core.measurement import measure_query_bandwidth

        result = measure_query_bandwidth(CLEAN, payload_bytes=50, repeats=1)
        assert result.mean_mbps > 0
