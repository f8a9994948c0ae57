"""Tests for execution monitoring (paper Figure 3, responsibility v)."""

import pytest

from repro.hardware.environment import Environment, EnvironmentConfig
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.scsql.session import SCSQSession

QUERY = (
    "select extract(b) from sp a, sp b "
    "where b=sp(count(extract(a)), 'bg', 0) "
    "and a=sp(gen_array(50000,4), 'bg', 1);"
)


@pytest.fixture(scope="module")
def report():
    session = SCSQSession()
    return session.execute(QUERY)


class TestRpStatistics:
    def test_every_rp_has_a_snapshot(self, report):
        assert set(report.rp_statistics) == set(report.rp_placements)

    def test_operator_counters(self, report):
        generator = report.rp_statistics["a@1"]
        counter = report.rp_statistics["b@2"]
        gen_op = {op.name: op for op in generator.operators}["gen_array"]
        count_op = {op.name: op for op in counter.operators}["count"]
        assert gen_op.objects_out == 4
        assert count_op.objects_in == 4
        assert count_op.objects_out == 1

    def test_stream_volumes_balance(self, report):
        generator = report.rp_statistics["a@1"]
        counter = report.rp_statistics["b@2"]
        assert generator.bytes_sent == 4 * 50_000
        assert counter.bytes_received == generator.bytes_sent

    def test_cpu_time_recorded(self, report):
        assert report.rp_statistics["a@1"].cpu_busy_time > 0
        assert report.rp_statistics["b@2"].cpu_busy_time > 0

    def test_describe_renders(self, report):
        text = report.describe()
        assert "result: [4]" in text
        assert "gen_array" in text
        assert "duration" in text
        per_rp = report.rp_statistics["a@1"].describe()
        assert "a@1" in per_rp and "bg:1" in per_rp


class TestMetricsBridge:
    """RP statistics publish into the obs metrics registry (PR-2 satellite)."""

    def test_publish_sets_expected_gauges(self, report):
        metrics = MetricsRegistry()
        stats = report.rp_statistics["a@1"]
        stats.publish(metrics)
        assert metrics.gauges["rp.a@1.cpu_busy_s"].value == stats.cpu_busy_time
        assert metrics.gauges["rp.a@1.bytes_sent"].value == 4 * 50_000
        assert (
            metrics.gauges["rp.a@1.operator.objects_out[gen_array]"].value == 4
        )
        sent_gauges = [n for n in metrics.gauges if n.startswith("rp.a@1.sent.bytes[")]
        assert sent_gauges

    def test_publish_is_idempotent(self, report):
        metrics = MetricsRegistry()
        stats = report.rp_statistics["b@2"]
        stats.publish(metrics)
        stats.publish(metrics)
        assert metrics.gauges["rp.b@2.bytes_received"].value == 4 * 50_000

    def test_instrumented_run_snapshots_rp_gauges(self):
        """The deployment publishes every RP's counters before snapshot."""
        obs = Instrumentation(tracer=NULL_TRACER)
        session = SCSQSession(Environment(EnvironmentConfig(), obs=obs))
        report = session.execute(QUERY)
        assert report.metrics is not None
        rp_gauges = [n for n in report.metrics.gauges if n.startswith("rp.")]
        assert any(n == "rp.a@1.cpu_busy_s" for n in rp_gauges)
        assert any(n.startswith("rp.b@2.operator.objects_in[") for n in rp_gauges)
