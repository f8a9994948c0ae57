"""Unit tests for subquery registration, node selection, and the deployer."""

import pytest

from repro.coordinator.allocation import AllocationSequence, NaiveSelector
from repro.coordinator.deployer import BG_POLL_INTERVAL, ROOT_RP_ID, Deployer
from repro.coordinator.graph import QueryGraph, SPDef
from repro.coordinator.resolver import resolve_placement
from repro.engine.sqep import plan_input, plan_op
from repro.util.errors import (
    AllocationError,
    PlanVerificationError,
    QuerySemanticError,
)


class TestCoordinator:
    @staticmethod
    def _place_one(env, allocation=None):
        graph = QueryGraph()
        graph.add(SPDef("x", "bg", plan_op("iota", 1, 3), allocation))
        graph.root_plan = plan_input("x")
        assignment, diagnostics = resolve_placement(graph, env, NaiveSelector())
        assert diagnostics == []
        return assignment.nodes["x"]

    def test_start_rp_places_and_reserves(self, env):
        node = self._place_one(env)
        assert node.cluster == "bg"
        assert not node.is_available  # CNK: one process per node

    def test_allocation_sequence_honoured(self, env):
        assert self._place_one(env, AllocationSequence(7)).index == 7

    @staticmethod
    def _one_sp_graph(cluster):
        graph = QueryGraph()
        graph.add(SPDef("x", cluster, plan_op("iota", 1, 3)))
        graph.root_plan = plan_input("x")
        return graph

    def test_bluegene_pays_polling_latency(self, env):
        deployer = Deployer(env)
        for cluster, latency in (("bg", BG_POLL_INTERVAL), ("be", 0.0), ("fe", 0.0)):
            deployment = deployer.deploy(deployer.place(self._one_sp_graph(cluster)))
            assert deployment.setup_latency == latency
            deployment.teardown()

    def test_unknown_cluster(self, env):
        deployer = Deployer(env)
        with pytest.raises(PlanVerificationError, match="unknown cluster") as info:
            deployer.deploy(deployer.place(self._one_sp_graph("gpu")))
        assert [d.code for d in info.value.diagnostics] == ["SCSQ101"]


class TestQueryGraph:
    def test_duplicate_sp_rejected(self):
        graph = QueryGraph()
        graph.add(SPDef("a", "bg", plan_op("iota", 1, 2)))
        with pytest.raises(QuerySemanticError):
            graph.add(SPDef("a", "bg", plan_op("iota", 1, 2)))

    def test_validate_needs_root(self):
        with pytest.raises(QuerySemanticError):
            QueryGraph().validate()

    def test_validate_rejects_unknown_producer(self):
        graph = QueryGraph()
        graph.root_plan = plan_input("ghost")
        with pytest.raises(QuerySemanticError, match="ghost"):
            graph.validate()

    def test_validate_rejects_missing_plan(self):
        graph = QueryGraph()
        graph.add(SPDef("a", "bg"))
        graph.root_plan = plan_input("a")
        with pytest.raises(QuerySemanticError, match="no compiled subquery"):
            graph.validate()

    def test_producers_of(self):
        graph = QueryGraph()
        plan = plan_op("merge", children=(plan_input("x"), plan_input("y")))
        assert graph.producers_of(plan) == ["x", "y"]


class TestDeployerRun:
    """The paper's client-manager role — submit a graph, run it, report —
    which is ``Deployer.run``."""

    def _simple_graph(self):
        graph = QueryGraph()
        graph.add(SPDef("a", "bg", plan_op("iota", 1, 5), AllocationSequence(1)))
        graph.add(
            SPDef(
                "b",
                "bg",
                plan_op("sum", children=(plan_input("a"),)),
                AllocationSequence(0),
            )
        )
        graph.root_plan = plan_input("b")
        return graph

    def test_executes_and_reports(self, env):
        report = Deployer(env).run(self._simple_graph())
        assert report.result == [15]
        assert report.scalar_result == 15
        assert report.duration > 0
        assert report.rp_placements["a"] == "bg:1"
        assert report.rp_placements["b"] == "bg:0"
        assert ROOT_RP_ID in report.rp_placements
        assert report.torus_bytes > 0

    def test_scalar_result_needs_single_object(self, env):
        graph = QueryGraph()
        graph.add(SPDef("a", "bg", plan_op("iota", 1, 3), AllocationSequence(1)))
        graph.root_plan = plan_input("a")
        report = Deployer(env).run(graph)
        assert report.result == [1, 2, 3]
        with pytest.raises(Exception):
            _ = report.scalar_result

    def test_nodes_released_after_execution(self, env):
        Deployer(env).run(self._simple_graph())
        assert env.node("bg", 0).is_available
        assert env.node("bg", 1).is_available

    def test_allocation_failure_surfaces(self, env):
        graph = self._simple_graph()
        env.node("bg", 1).acquire()  # the explicit target is busy
        with pytest.raises(AllocationError):
            Deployer(env).run(graph)
