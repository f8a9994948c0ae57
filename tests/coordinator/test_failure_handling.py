"""Failure injection: operator crashes must surface promptly, not deadlock."""

import pytest

from repro.coordinator.allocation import AllocationSequence
from repro.coordinator.deployer import Deployer
from repro.coordinator.graph import QueryGraph, SPDef
from repro.engine import rp
from repro.engine.operators.base import Operator
from repro.engine.sqep import plan_input, plan_op
from repro.util.errors import QueryExecutionError


class ExplodingOperator(Operator):
    """Emits a few objects, then raises."""

    name = "explode_for_tests"
    arity = (0, 0)

    def __init__(self, ctx, inputs, output, after: int = 3):
        super().__init__(ctx, inputs, output)
        self.after = after

    def run(self):
        for i in range(self.after):
            yield from self.emit(i)
        raise QueryExecutionError("injected operator failure")


@pytest.fixture(autouse=True)
def exploding_operator(monkeypatch):
    """Running processes resolve ``explode_for_tests`` during this module's
    tests only; every other name still resolves to its builtin."""
    builtin = rp.operator_class
    monkeypatch.setattr(
        rp, "operator_class",
        lambda name: ExplodingOperator if name == ExplodingOperator.name else builtin(name),
    )


class TestOperatorCrash:
    def _graph(self):
        graph = QueryGraph()
        graph.add(SPDef("boom", "bg", plan_op("explode_for_tests"), AllocationSequence(1)))
        graph.add(
            SPDef(
                "agg",
                "bg",
                plan_op("count", children=(plan_input("boom"),)),
                AllocationSequence(0),
            )
        )
        graph.root_plan = plan_input("agg")
        return graph

    def test_crash_surfaces_as_the_original_error(self, env):
        with pytest.raises(QueryExecutionError, match="injected operator failure"):
            Deployer(env).run(self._graph())

    def test_crash_does_not_hang_the_simulation(self, env):
        """The downstream count never receives EOS; without failure
        propagation this would be reported as a deadlock."""
        try:
            Deployer(env).run(self._graph())
        except QueryExecutionError:
            pass
        # Simulated time advanced only as far as the crash.
        assert env.sim.now < 1.0

    def test_environment_still_usable_for_diagnosis(self, env):
        try:
            Deployer(env).run(self._graph())
        except QueryExecutionError:
            pass
        # The crashed query's placements are still recorded on the nodes.
        assert env.node("bg", 1).running_processes >= 0
