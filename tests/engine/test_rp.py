"""Unit tests for RunningProcess lifecycle and wiring."""

import pytest

from repro.engine.operators.merge import First
from repro.engine.rp import RunningProcess
from repro.engine.settings import ExecutionSettings
from repro.engine.sqep import plan_input, plan_op
from repro.util.errors import QueryExecutionError, SimulationError


def make_rp(env, plan, node_index=1, rp_id="rp-under-test"):
    return RunningProcess(
        rp_id, env, env.node("bg", node_index), plan, ExecutionSettings()
    )


class TestLifecycle:
    def test_construction_reserves_the_node(self, env):
        make_rp(env, plan_op("iota", 1, 3))
        assert not env.node("bg", 1).is_available  # CNK: one process

    def test_double_build_rejected(self, env):
        rp = make_rp(env, plan_op("iota", 1, 3))
        rp.build()
        with pytest.raises(QueryExecutionError, match="already built"):
            rp.build()

    def test_start_requires_build(self, env):
        rp = make_rp(env, plan_op("iota", 1, 3))
        with pytest.raises(QueryExecutionError, match="build"):
            rp.start()

    def test_double_start_rejected(self, env):
        rp = make_rp(env, plan_op("iota", 1, 3))
        rp.build()
        rp.start()
        with pytest.raises(QueryExecutionError, match="already started"):
            rp.start()

    def test_subscribe_after_start_rejected(self, env):
        producer = make_rp(env, plan_op("iota", 1, 3), node_index=1, rp_id="p")
        consumer = make_rp(
            env, plan_op("count", children=(plan_input("p"),)), node_index=2, rp_id="c"
        )
        producer.build()
        ports = consumer.build()
        producer.start()
        with pytest.raises(QueryExecutionError, match="after start"):
            producer.add_subscriber(consumer, ports[0].inbox)


class TestWiring:
    def test_input_ports_match_plan_leaves(self, env):
        plan = plan_op("merge", children=(plan_input("x"), plan_input("y")))
        rp = make_rp(env, plan)
        ports = rp.build()
        assert [p.producer_sp for p in ports] == ["x", "y"]

    def test_fan_out_duplicates_the_stream(self, env):
        """Two subscribers of one producer each receive the full stream —
        the paper's radix2 split (a and b both extract c)."""
        producer = make_rp(env, plan_op("iota", 1, 5), node_index=1, rp_id="p")
        left = make_rp(
            env, plan_op("sum", children=(plan_input("p"),)), node_index=2, rp_id="l"
        )
        right = make_rp(
            env, plan_op("count", children=(plan_input("p"),)), node_index=4, rp_id="r"
        )
        producer.build()
        left_ports = left.build()
        right_ports = right.build()
        producer.add_subscriber(left, left_ports[0].inbox)
        producer.add_subscriber(right, right_ports[0].inbox)
        for rp in (producer, left, right):
            rp.start()

        def harvest(rp):
            value = yield rp.result_store.get()
            return value

        sums = env.sim.process(harvest(left))
        counts = env.sim.process(harvest(right))
        env.sim.run()
        assert sums.value == 15
        assert counts.value == 5
        assert producer.bytes_sent == 2 * 5 * 8  # both subscribers, 5 ints

    def test_join_releases_the_node(self, env):
        rp = make_rp(env, plan_op("iota", 1, 2))
        rp.build()
        rp.start()

        def drain():
            while True:
                from repro.engine.objects import END_OF_STREAM

                obj = yield rp.result_store.get()
                if obj is END_OF_STREAM:
                    break
            yield from rp.join()

        env.sim.run_process(drain())
        assert env.node("bg", 1).is_available

    def test_an_unlinked_crash_of_a_stop_condition_root_stops_the_run(
        self, env, monkeypatch
    ):
        """An RP started without a failure event has no failure link: a
        crash of its ``first`` root is unhandled, not swallowed by the
        stop-condition supervision on that root."""

        def boom(self):
            raise RuntimeError("boom in first")
            yield  # pragma: no cover - a generator that raises at once

        monkeypatch.setattr(First, "run", boom)
        producer = make_rp(env, plan_op("iota", 1, 5), node_index=1, rp_id="p")
        consumer = make_rp(
            env, plan_op("first", 2, children=(plan_input("p"),)), node_index=2, rp_id="c"
        )
        producer.build()
        ports = consumer.build()
        producer.add_subscriber(consumer, ports[0].inbox)
        producer.start()
        consumer.start()
        with pytest.raises(SimulationError, match="boom in first"):
            env.sim.run()

    def test_repr(self, env):
        rp = make_rp(env, plan_op("iota", 1, 2))
        assert "rp-under-test" in repr(rp)
        assert "bg:1" in repr(rp)
