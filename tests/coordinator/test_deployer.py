"""The deployer lifecycle: place -> deploy -> run -> teardown.

The tentpole guarantees under test:

* **Compile once, deploy anywhere**: a :class:`DeploymentPlan` compiled
  once (even pickled across a process boundary) deploys onto any fresh
  environment with results *bit-identical* to the legacy
  compile-per-execute session path, across fig6/fig8/fig15 query shapes.
* **Teardown returns the environment**: after ``teardown()`` every node
  slot is back in the CNDBs and the round-robin cursors are rewound, so
  redeploying the same plan neither raises nor shifts placement.
"""

import pickle

import pytest

from repro.coordinator.allocation import UrrSpec
from repro.coordinator.deployer import (
    CostBasedPlacement,
    Deployer,
    SelectorPlacement,
)
from repro.core.experiments.fig6 import point_to_point_query, scaled_workload
from repro.core.experiments.fig8 import merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.scsql.plan import compile_plan
from repro.scsql.session import SCSQSession
from repro.util.errors import QueryExecutionError, QuerySemanticError


def _sample_points():
    """One representative query per reproduced figure (small workloads)."""
    array_bytes, count = scaled_workload(1000, target_buffers=30)
    settings = ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True)
    return [
        ("fig6", point_to_point_query(array_bytes, count), settings),
        ("fig8", merge_query(array_bytes, count, 1, 4), settings),
        ("fig15-q2", inbound_query(2, 2, 50_000, 2), ExecutionSettings()),
        ("fig15-q5", inbound_query(5, 3, 50_000, 2), ExecutionSettings()),
    ]


def _fresh_env(seed: int = 0) -> Environment:
    return Environment(EnvironmentConfig(seed=seed))


class TestCompileOnceEquivalence:
    """Plan-based execution is bit-identical to the session path."""

    @pytest.mark.parametrize("label,query,settings", _sample_points())
    def test_deployer_matches_session_execute(self, label, query, settings):
        plan = compile_plan(query, settings=settings)  # compiled ONCE
        for seed in (0, 1):
            legacy = SCSQSession(_fresh_env(seed), settings).execute(query, settings)
            fresh = Deployer(_fresh_env(seed)).run(plan)
            assert fresh.result == legacy.result
            assert fresh.duration == legacy.duration  # float-exact
            assert fresh.rp_placements == legacy.rp_placements
            assert fresh.bytes_sent == legacy.bytes_sent

    def test_plan_survives_pickling(self):
        _, query, settings = _sample_points()[2]
        plan = compile_plan(query, settings=settings)
        thawed = pickle.loads(pickle.dumps(plan))
        original = Deployer(_fresh_env()).run(plan)
        roundtripped = Deployer(_fresh_env()).run(thawed)
        assert roundtripped.result == original.result
        assert roundtripped.duration == original.duration
        assert roundtripped.rp_placements == original.rp_placements

    def test_pickling_preserves_shared_spec_instances(self):
        # The spv() members share ONE spec instance; pickle must keep that
        # sharing or urr() placement would shift after a process hop.
        plan = compile_plan(inbound_query(2, 3, 50_000, 2))
        thawed = pickle.loads(pickle.dumps(plan))
        specs = [
            sp.allocation
            for sp in thawed.graph.sps.values()
            if isinstance(sp.allocation, UrrSpec)
        ]
        assert len(specs) >= 2
        assert len({id(spec) for spec in specs}) == 1

    def test_plan_is_reusable_across_deploys(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        first = Deployer(_fresh_env()).run(plan)
        second = Deployer(_fresh_env()).run(plan)
        assert second.duration == first.duration
        assert second.rp_placements == first.rp_placements

    def test_plan_requires_select_query(self):
        with pytest.raises(QuerySemanticError):
            compile_plan(
                "create function f() -> stream as select extract(a) from sp a "
                "where a=sp(gen_array(10,1), 'bg');"
            )


class TestTeardown:
    def _occupied_nodes(self, env: Environment) -> int:
        return sum(
            node.running_processes
            for cluster in env.cluster_names()
            for node in env.cndb(cluster).all_nodes()
        )

    def test_teardown_returns_nodes_to_cndb(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        env = _fresh_env()
        deployer = Deployer(env)
        deployment = deployer.deploy(deployer.place(plan))
        assert self._occupied_nodes(env) > 0
        deployment.run()
        deployment.teardown()
        assert deployment.torn_down
        assert self._occupied_nodes(env) == 0

    def test_redeploy_after_teardown_is_stable(self):
        # urr('be') placements come off the CNDB round-robin cursor, which
        # teardown() must rewind: the redeployment then neither raises nor
        # shifts a single placement.
        plan = compile_plan(inbound_query(2, 3, 50_000, 2))
        env = _fresh_env()
        deployer = Deployer(env)
        first = deployer.deploy(deployer.place(plan)).run()
        deployer.teardown()
        second = deployer.deploy(deployer.place(plan)).run()
        deployer.teardown()
        assert second.rp_placements == first.rp_placements
        assert second.duration > 0.0  # jitter RNG advanced; only placement is pinned
        assert self._occupied_nodes(env) == 0

    def test_teardown_without_running_releases_nodes(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        env = _fresh_env()
        deployer = Deployer(env)
        deployer.deploy(deployer.place(plan))  # deployed, never run
        deployer.teardown()
        assert self._occupied_nodes(env) == 0
        # The environment is immediately reusable.
        report = Deployer(env).run(plan)
        assert report.duration > 0.0

    def test_teardown_is_idempotent(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        env = _fresh_env()
        deployer = Deployer(env)
        deployment = deployer.deploy(deployer.place(plan))
        deployment.run()
        deployment.teardown()
        deployment.teardown()
        deployer.teardown()  # sweeps the (already torn down) deployment
        assert self._occupied_nodes(env) == 0

    def test_successive_deployments_on_one_environment(self):
        # The env hosts successive deployments: run, teardown, run again.
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        env = _fresh_env()
        deployer = Deployer(env)
        reports = []
        for _ in range(3):
            deployment = deployer.deploy(deployer.place(plan))
            reports.append(deployment.run())
            deployment.teardown()
        assert reports[1].rp_placements == reports[0].rp_placements
        assert reports[2].rp_placements == reports[0].rp_placements


class TestPlacementStrategies:
    def test_selector_placement_names_its_selector(self):
        assert SelectorPlacement().selector.name == "naive"

    def test_cost_based_placement_matches_optimized_session(self):
        query = point_to_point_query(*scaled_workload(1000, target_buffers=30))
        settings = ExecutionSettings(mpi_buffer_bytes=1000, double_buffering=True)
        legacy = SCSQSession(_fresh_env(), settings).execute(
            query, settings, optimize=True
        )
        plan = compile_plan(query, settings=settings)
        report = Deployer(_fresh_env()).run(plan, strategy=CostBasedPlacement())
        assert report.rp_placements == legacy.rp_placements
        assert report.duration == legacy.duration

    def test_strategy_leaves_source_plan_pristine(self):
        query = point_to_point_query(*scaled_workload(1000, target_buffers=30))
        plan = compile_plan(query)
        before = {
            sp_id: sp.allocation for sp_id, sp in plan.graph.sps.items()
        }
        deployer = Deployer(_fresh_env())
        deployer.place(plan, CostBasedPlacement())
        after = {sp_id: sp.allocation for sp_id, sp in plan.graph.sps.items()}
        assert after == before  # the placer pinned a COPY, not the plan


class TestDeploymentStartFinish:
    def test_finish_before_simulation_raises(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        deployer = Deployer(_fresh_env())
        deployment = deployer.deploy(deployer.place(plan))
        deployment.start()
        with pytest.raises(QueryExecutionError, match="never finished"):
            deployment.finish()

    def test_double_start_raises(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        deployer = Deployer(_fresh_env())
        deployment = deployer.deploy(deployer.place(plan))
        deployment.start()
        with pytest.raises(QueryExecutionError, match="already started"):
            deployment.start()

    def test_start_run_finish_matches_plain_run(self):
        _, query, settings = _sample_points()[0]
        plan = compile_plan(query, settings=settings)
        plain = Deployer(_fresh_env()).run(plan)
        env = _fresh_env()
        deployer = Deployer(env)
        deployment = deployer.deploy(deployer.place(plan))
        deployment.start()
        env.sim.run()
        report = deployment.finish()
        assert report.result == plain.result
        assert report.duration == plain.duration
        assert report.rp_placements == plain.rp_placements


class TestFailedDeployIsAtomic:
    """A deployment that cannot be built leaves the environment as found.

    ``a`` takes bg:0 off the round-robin cursor, ``b`` takes bg:3, ``c``
    collides with ``b``.  The deployer used to raise with bg:0 and bg:3
    still acquired and the cursor at 1 — and no Deployment object to tear
    down — so the healthy follow-up plan pinned to bg:3 could not deploy.
    """

    COLLIDING = (
        "select count(merge({a,b,c})) from sp a, sp b, sp c "
        "where a=sp(gen_array(10,2), 'bg', urr('bg')) "
        "and b=sp(gen_array(10,2), 'bg', 3) "
        "and c=sp(gen_array(10,2), 'bg', 3)"
    )
    FOLLOW_UP = (
        "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 3)"
    )

    def _assert_pristine(self, env: Environment, before) -> None:
        from repro.analysis import sanitize

        assert env.template.snapshot() == before
        for cluster in env.cluster_names():
            assert all(
                node.running_processes == 0 and not node.failed
                for node in env.cndb(cluster).all_nodes()
            )
        assert all(cursor == 0 for _, cursor in env.template.snapshot().cursors)
        sanitize.assert_quiescent(env)

    def test_failed_deploy_leaves_environment_untouched(self):
        from repro.util.errors import AllocationError

        env = _fresh_env()
        before = env.template.snapshot()
        deployer = Deployer(env)
        with pytest.raises(AllocationError) as exc_info:
            deployer.deploy(deployer.place(compile_plan(self.COLLIDING)))
        (found,) = exc_info.value.diagnostics
        assert found.code == "SCSQ103" and found.sp_id.startswith("c")
        assert found.span is not None  # points at the offending sp() call
        self._assert_pristine(env, before)
        follow_up = compile_plan(self.FOLLOW_UP)
        assert deployer.verify(follow_up).diagnostics == []
        assert deployer.run(follow_up).scalar_result == 5

    def test_cyclic_graph_is_rejected_at_deploy(self):
        """``a`` <- ``b`` <- ``a``: neither stream can ever end, and a
        deployed cycle dies in ``SimulationError: simulation deadlocked``.
        Deploy raises the ``SCSQ003`` the verifier reports, before any
        node is acquired."""
        from repro.coordinator.graph import QueryGraph, SPDef
        from repro.engine.sqep import plan_input, plan_op
        from repro.util.errors import PlanVerificationError

        graph = QueryGraph(root_plan=plan_op("count", children=(plan_input("a"),)))
        graph.add(SPDef("a", "bg", plan_input("b")))
        graph.add(SPDef("b", "bg", plan_input("a")))
        env = _fresh_env()
        before = env.template.snapshot()
        deployer = Deployer(env)
        placed = deployer.place(graph)
        (reported,) = deployer.verify(placed).errors
        assert reported.code == "SCSQ003" and "a -> b -> a" in reported.message
        with pytest.raises(PlanVerificationError, match="a -> b -> a") as exc_info:
            deployer.deploy(placed)
        assert exc_info.value.diagnostics == [reported]
        self._assert_pristine(env, before)

    def test_failed_submit_leaves_session_usable(self):
        from repro.core.multiquery import MultiQuerySession
        from repro.util.errors import AllocationError

        session = MultiQuerySession()
        before = session.env.template.snapshot()
        with pytest.raises(AllocationError):
            session.submit(compile_plan(self.COLLIDING), payload_bytes=20)
        self._assert_pristine(session.env, before)
        session.submit(compile_plan(self.FOLLOW_UP), payload_bytes=50, label="ok")
        assert session.run()["ok"].report.scalar_result == 5
        session.teardown()

    def test_failed_replan_leaves_environment_untouched(self):
        # The fault harness's replan step: tear the victim down, damage the
        # hardware, place and deploy again — here onto a plan that cannot fit.
        from repro.util.errors import AllocationError

        env = _fresh_env()
        deployer = Deployer(env)
        victim = deployer.deploy(deployer.place(compile_plan(self.FOLLOW_UP)))
        victim.teardown()
        env.node("bg", 7).fail()
        after_fault = env.template.snapshot()
        with pytest.raises(AllocationError):
            deployer.deploy(
                deployer.place(compile_plan(self.COLLIDING)), rp_prefix="s0+r1/"
            )
        assert env.template.snapshot() == after_fault

    def test_failure_while_wiring_releases_everything(self, monkeypatch):
        from repro.coordinator.deployer import Deployment

        def broken_wire(self):
            raise QueryExecutionError("injected wiring failure")

        monkeypatch.setattr(Deployment, "_wire", broken_wire)
        env = _fresh_env()
        before = env.template.snapshot()
        deployer = Deployer(env)
        with pytest.raises(QueryExecutionError, match="injected wiring failure"):
            deployer.deploy(deployer.place(compile_plan(inbound_query(2, 3, 50_000, 2))))
        self._assert_pristine(env, before)
