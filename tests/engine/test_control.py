"""Tests for query termination: user stops, unbounded streams, flushing."""

import pytest

from repro.coordinator.deployer import BG_POLL_INTERVAL
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.session import SCSQSession
from repro.util.errors import QueryExecutionError, SimulationError
from tests.conftest import run_operator

UNBOUNDED_QUERY = """
select extract(a) from sp a
where a=sp(gen_array(10000,-1), 'bg', 1);
"""

FINITE_QUERY = """
select extract(b) from sp a, sp b
where b=sp(count(extract(a)), 'bg', 0)
and a=sp(gen_array(100000,5), 'bg', 1);
"""


class TestUnboundedStreams:
    def test_unbounded_gen_array_accepted(self):
        from repro.engine.operators import GenerateArrays

        # Validation only; actually running it would never end.
        session = SCSQSession()
        graph = session.compile(UNBOUNDED_QUERY)
        assert len(graph.sps) == 1

    def test_invalid_count_rejected(self, env):
        from repro.engine.operators import GenerateArrays

        with pytest.raises(QueryExecutionError):
            run_operator(env, GenerateArrays, [], nbytes=10, count=-2)


class TestUserStop:
    def test_stop_terminates_an_unbounded_query(self):
        session = SCSQSession()
        report = session.execute(UNBOUNDED_QUERY, stop_after=0.05)
        assert report.stopped
        assert len(report.result) > 0
        assert report.duration == pytest.approx(0.05, rel=0.02)

    def test_partial_results_scale_with_deadline(self):
        short = SCSQSession().execute(UNBOUNDED_QUERY, stop_after=0.02)
        long = SCSQSession().execute(UNBOUNDED_QUERY, stop_after=0.08)
        assert len(long.result) > len(short.result)

    def test_nodes_released_after_stop(self):
        session = SCSQSession()
        session.execute(UNBOUNDED_QUERY, stop_after=0.02)
        assert session.env.node("bg", 1).is_available

    def test_finite_query_unaffected_by_late_deadline(self):
        report = SCSQSession().execute(FINITE_QUERY, stop_after=1000.0)
        assert not report.stopped
        assert report.result == [5]
        assert report.duration < 1.0

    def test_stop_of_distributed_aggregation(self):
        session = SCSQSession()
        report = session.execute(
            """
            select extract(b) from sp a, sp b
            where b=sp(winagg(extract(a), 'count', 10, 10), 'bg', 0)
            and a=sp(gen_array(100000,-1), 'bg', 1);
            """,
            stop_after=0.1,
        )
        assert report.stopped
        assert len(report.result) > 0
        assert all(window == 10 for window in report.result)


class TestStopBeforeTheRPsExist:
    """A deadline inside the bgCC poll stops the query before its RPs
    start.  These queries are finite, so a stop that let them start anyway
    and then joined RPs nothing stops would deadlock, not hang."""

    @pytest.mark.parametrize("stop_after", [0.0005, BG_POLL_INTERVAL])
    def test_a_stop_inside_the_poll_returns_an_empty_result(self, stop_after):
        session = SCSQSession()
        report = session.execute(FINITE_QUERY, stop_after=stop_after)
        assert report.stopped
        assert report.result == []
        assert report.duration == BG_POLL_INTERVAL  # noticed when the poll ends
        assert session.env.node("bg", 0).is_available
        assert session.env.node("bg", 1).is_available

    def test_a_deadline_counts_from_the_query_start(self):
        """The second stopped query on one session gets its own deadline,
        not one that passed before it started."""
        query = """
        select extract(b) from sp a, sp b
        where b=sp(winagg(extract(a), 'count', 10, 10), 'bg', 0)
        and a=sp(gen_array(100000,100), 'bg', 1);
        """
        session = SCSQSession()
        first = session.execute(query, stop_after=0.05)
        second = session.execute(query, stop_after=0.05)
        assert first.stopped and second.stopped
        assert first.result == second.result == [10, 10]
        assert first.duration == 0.05
        assert second.duration == pytest.approx(0.05)

    @pytest.mark.parametrize("stop_after", [-1.0, float("nan"), float("inf")])
    def test_a_bad_deadline_is_rejected(self, stop_after):
        session = SCSQSession()
        with pytest.raises(QueryExecutionError, match="stop_after"):
            session.execute(FINITE_QUERY, stop_after=stop_after)
        assert session.env.node("bg", 0).is_available
        assert session.env.node("bg", 1).is_available


class TestFlushInterval:
    def test_low_rate_results_arrive_before_eos(self):
        """Window aggregates of a continuous query must reach the client
        manager without waiting for a full send buffer."""
        report = SCSQSession().execute(
            """
            select extract(b) from sp a, sp b
            where b=sp(winagg(extract(a), 'count', 5, 5), 'bg', 0)
            and a=sp(gen_array(50000,-1), 'bg', 1);
            """,
            stop_after=0.1,
        )
        assert len(report.result) >= 1

    def test_invalid_interval_rejected(self):
        with pytest.raises(SimulationError):
            ExecutionSettings(flush_interval=0.0)


class TestStopInboundQuery:
    def test_stop_unbounded_tcp_ingress(self):
        """Stopping mid-flight over the TCP ingress path: interrupted
        senders must release their NIC/window resources cleanly."""
        obs = Instrumentation(tracer=NULL_TRACER)
        session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
        report = session.execute(
            """
            select extract(b) from sp a, sp b
            where b=sp(winagg(extract(a), 'count', 3, 3), 'bg', 0)
            and a=sp(gen_array(1000000,-1), 'be', 1);
            """,
            stop_after=0.3,
        )
        assert report.stopped
        assert len(report.result) > 0
        assert obs.snapshot().counter("ethernet.ingress_bytes") > 0
        assert session.env.node("be", 1).is_available
        assert session.env.node("bg", 0).is_available
