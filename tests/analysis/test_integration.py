"""Verification wired into the deployment path.

``Deployer.verify(placed).raise_if_failed()`` is the stage that gates a
deployment on the static verifier (a session's is ``session.deployer``);
``deploy`` itself raises the verifier's error codes, and the placement
resolver rejects explicit allocations naming absent nodes with a typed
error.
"""

import pytest

from repro.coordinator.allocation import NaiveSelector
from repro.coordinator.deployer import Deployer
from repro.coordinator.resolver import placement_failure, resolve_placement
from repro.core.multiquery import MultiQuerySession
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.util.errors import PlanVerificationError, QueryError, ReproError

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


def codes(diagnostics):
    return [found.code for found in diagnostics]


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
        # Warnings pass the verify stage, and never block a deployment...
        placed = deployer.place(compile_plan(CROSS_PSET))
        report = deployer.verify(placed)
        assert codes(report.warnings) == ["SCSQ301"]
        report.raise_if_failed()
        deployer.deploy(placed).teardown()
        # ...errors fail both, with the same code.
        deployer.env.cndb("bg").node(3).acquire()
        placed = deployer.place(compile_plan(PINNED_NODE_3))
        with pytest.raises(QueryError) as verified:
            deployer.verify(placed).raise_if_failed()
        assert codes(verified.value.diagnostics) == ["SCSQ201"]
        assert "error[SCSQ201]" in str(verified.value)
        assert "already allocated" in str(verified.value)
        with pytest.raises(ReproError) as deployed:
            deployer.deploy(placed)
        assert codes(deployed.value.diagnostics) == ["SCSQ201"]
        assert "already allocated" in str(deployed.value)

    def test_deploy_verify_strict_blocks_warnings(self):
        deployer = fresh_deployer()
        placed = deployer.place(compile_plan(CROSS_PSET))
        with pytest.raises(QueryError) as exc_info:
            deployer.verify(placed).raise_if_failed(strict=True)
        assert codes(exc_info.value.diagnostics) == ["SCSQ301"]
        assert "warning[SCSQ301]" in str(exc_info.value)
        assert "crosses pset boundaries" in str(exc_info.value)

    def test_run_with_verify_still_executes(self):
        # The verify stage is pure: the plan and the environment run as if
        # it had never been asked.
        deployer = fresh_deployer()
        plan = compile_plan(CLEAN)
        before = deployer.env.template.snapshot()
        deployer.verify(plan).raise_if_failed(strict=True)
        assert deployer.env.template.snapshot() == before
        assert deployer.run(plan).scalar_result == 5


class TestMultiQuerySessionVerify:
    def test_double_allocation_across_queries_is_caught(self):
        # Earlier submissions hold their nodes in the shared CNDBs: the
        # session's deployer verifies the next plan against them.
        session = MultiQuerySession()
        plan = compile_plan(PINNED_NODE_3)
        session.submit(plan, payload_bytes=50)
        report = session.deployer.verify(plan, label="q1")
        assert codes(report.errors) == ["SCSQ201"]
        assert "bg:3" in report.errors[0].message
        assert "already allocated by a pre-existing deployment" in report.errors[0].message
        with pytest.raises(QueryError, match=r"'q1'.*SCSQ201"):
            report.raise_if_failed()
        session.teardown()

    def test_disjoint_queries_run_verified(self):
        session = MultiQuerySession()
        for label, query in (("left", CLEAN), ("right", PINNED_NODE_3)):
            plan = compile_plan(query)
            session.deployer.verify(plan, label=label).raise_if_failed(strict=True)
            session.submit(plan, payload_bytes=50, label=label)
        result = session.run()
        assert result["left"].report.scalar_result == 5
        assert result["right"].report.scalar_result == 5
        session.teardown()

    def test_unverified_session_keeps_legacy_behaviour(self):
        # Nobody asked the verifier: the second submit fails at deploy time
        # with the paper's "the query will fail" and the verifier's code.
        session = MultiQuerySession()
        session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        with pytest.raises(ReproError, match="bg:3 .* is already allocated") as exc_info:
            session.submit(compile_plan(PINNED_NODE_3), payload_bytes=50)
        assert codes(exc_info.value.diagnostics) == ["SCSQ201"]
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
