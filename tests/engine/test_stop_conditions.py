"""Tests for in-query stop conditions (first()) and upstream cancellation.

Paper section 2.2: a CQ may be stopped "by a stop condition in the query
that makes the stream finite.  When a CQ is stopped, its RPs are
terminated.  RPs regularly exchange control messages, which are used ...
to terminate execution upon a stop condition."
"""

import pytest

from repro.engine.operators import First
from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation
from repro.obs.tracer import NULL_TRACER
from repro.scsql.session import SCSQSession
from repro.util.errors import QueryExecutionError
from tests.conftest import run_operator


class TestFirstOperator:
    def test_truncates_a_long_stream(self, env):
        assert run_operator(env, First, [[1, 2, 3, 4, 5]], limit=3) == [1, 2, 3]

    def test_short_stream_passes_through(self, env):
        assert run_operator(env, First, [[1, 2]], limit=5) == [1, 2]

    def test_zero_limit(self, env):
        assert run_operator(env, First, [[1, 2]], limit=0) == []

    def test_negative_limit_rejected(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(env, First, [[1]], limit=-1)


class TestStopConditionTermination:
    def test_unbounded_source_terminates(self):
        """count(first(s, n)) over an endless generator finishes by itself."""
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(first(extract(a), 25)), 'bg', 0) "
            "and a=sp(gen_array(50000,-1), 'bg', 1);"
        )
        assert report.result == [25]
        assert not report.stopped  # the *query* ended, not the user

    def test_cancellation_cascades_through_relays(self):
        session = SCSQSession()
        report = session.execute(
            "select extract(c) from sp a, sp b, sp c "
            "where c=sp(count(first(extract(b), 10)), 'bg', 0) "
            "and b=sp(relay(extract(a)), 'bg', 2) "
            "and a=sp(gen_array(50000,-1), 'bg', 1);"
        )
        assert report.result == [10]

    def test_stop_condition_over_tcp_ingress(self):
        obs = Instrumentation(tracer=NULL_TRACER)
        session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(first(extract(a), 8)), 'bg', 0) "
            "and a=sp(gen_array(1000000,-1), 'be', 1);"
        )
        assert report.result == [8]
        assert obs.snapshot().counter("ethernet.ingress_bytes") >= 8 * 1_000_000

    def test_nodes_released_after_stop_condition(self):
        session = SCSQSession()
        session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(first(extract(a), 5)), 'bg', 0) "
            "and a=sp(gen_array(50000,-1), 'bg', 1);"
        )
        assert session.env.node("bg", 0).is_available
        assert session.env.node("bg", 1).is_available

    def test_producer_stops_promptly(self):
        """The cancelled producer must not generate unboundedly: the bytes
        it sent are within a small multiple of what the stop needed."""
        session = SCSQSession()
        report = session.execute(
            "select extract(b) from sp a, sp b "
            "where b=sp(count(first(extract(a), 10)), 'bg', 0) "
            "and a=sp(gen_array(50000,-1), 'bg', 1);"
        )
        produced = report.rp_statistics["a@1"].bytes_sent
        assert produced < 30 * 50_000  # 10 needed; small overshoot allowed

    def test_one_subscriber_cancelled_other_keeps_streaming(self):
        """A split stream: one branch truncates via first(), the other
        consumes everything.  The producer must keep serving the live
        branch (no premature termination)."""
        session = SCSQSession()
        report = session.execute(
            "select extract(d) from sp a, sp b, sp c, sp d "
            "where d=sp(sum(merge({b,c})), 'bg', 0) "
            "and b=sp(count(first(extract(a), 3)), 'bg', 2) "
            "and c=sp(count(extract(a)), 'bg', 4) "
            "and a=sp(gen_array(50000,40), 'bg', 1);"
        )
        # b counts 3 (truncated), c counts all 40.
        assert report.result == [43]
