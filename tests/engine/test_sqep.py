"""Unit tests for execution-plan specs."""

import pytest

from repro.engine.sqep import INPUT, OpSpec, plan_input, plan_op
from repro.util.errors import QueryExecutionError


class TestOpSpec:
    def test_input_requires_producer(self):
        with pytest.raises(QueryExecutionError):
            OpSpec(name=INPUT)

    def test_input_rejects_children(self):
        with pytest.raises(QueryExecutionError):
            OpSpec(name=INPUT, producer="a", children=(plan_op("count"),))

    def test_non_input_rejects_producer(self):
        with pytest.raises(QueryExecutionError):
            OpSpec(name="count", producer="a")

    def test_walk_is_children_first(self):
        plan = plan_op("count", children=(plan_op("merge", children=(plan_input("a"),)),))
        names = [node.name for node in plan.walk()]
        assert names == [INPUT, "merge", "count"]

    def test_input_leaves(self):
        plan = plan_op(
            "merge", children=(plan_input("a"), plan_input("b"), plan_op("iota", 1, 3))
        )
        assert [leaf.producer for leaf in plan.input_leaves()] == ["a", "b"]

    def test_describe_renders_tree(self):
        plan = plan_op("count", children=(plan_input("a"),))
        text = plan.describe()
        assert "count()" in text
        assert "input <- a" in text
