"""Every reader of a run's latency percentiles agrees, at every gate point.

``repro top``'s footer, the Prometheus summary, the per-window series and
the BENCH gate all go through :func:`repro.util.stats.latency_summary` over
the flow records the recorder holds, so for one seeded run they report the
same floats — and those floats are the committed ``BENCH_baseline.json``
``…/p50_ms`` / ``…/p95_ms`` keys.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.benchmark import bench_points
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import Environment, EnvironmentConfig, shared_template
from repro.obs.export import live_footer, prometheus_exposition
from repro.obs.instrument import live_instrumentation
from repro.scsql.plan import compile_plan
from repro.util.stats import latency_summary

BASELINE = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_baseline.json").read_text()
)["metrics"]
POINTS = {point.key: point for point in bench_points()}


@pytest.fixture(scope="module", params=sorted(POINTS))
def watched(request):
    """One live-instrumented seed-0 run of a gate point, as ``top`` builds it."""
    point = POINTS[request.param]
    obs, sampler = live_instrumentation()
    config = EnvironmentConfig().with_seed(0)
    env = Environment(config, obs=obs, template=shared_template(config))
    plan = compile_plan(point.query, settings=point.settings)
    Deployer(env).run(plan, settings=point.settings)
    sampler.finalize(env.sim.now)
    return point.key, obs, sampler


def test_footer_reports_the_exact_percentiles(watched):
    _key, obs, sampler = watched
    exact = latency_summary(obs.flows.latencies())
    assert live_footer(sampler).splitlines()[0] == (
        f"cumulative: {exact['n']} flows, latency p50 {exact['p50'] * 1e3:.3f} ms"
        f" / p95 {exact['p95'] * 1e3:.3f} ms / p99 {exact['p99'] * 1e3:.3f} ms"
    )


def test_prometheus_summary_reports_the_exact_percentiles(watched):
    _key, obs, _sampler = watched
    latencies = obs.flows.latencies()
    exact = latency_summary(latencies)
    samples = {
        quantile or suffix: value
        for quantile, suffix, value in re.findall(
            r'^repro_flow_latency_seconds(?:\{quantile="([\d.]+)"\}|_(sum|count)) (\S+)$',
            prometheus_exposition(obs), flags=re.M,
        )
    }
    assert samples == {
        "0.5": f"{exact['p50']:.9g}",
        "0.95": f"{exact['p95']:.9g}",
        "0.99": f"{exact['p99']:.9g}",
        "sum": f"{sum(latencies):.9g}",
        "count": str(exact["n"]),
    }


def test_window_series_are_summaries_of_the_recorders_slices(watched):
    _key, obs, sampler = watched
    latencies = obs.flows.latencies()
    document = sampler.series_document()
    assert sum(document["flows"]) == len(latencies)
    start = 0
    for index, flows in enumerate(document["flows"]):
        exact = latency_summary(latencies[start:start + int(flows)])
        start += int(flows)
        assert sampler.windows[index].latency == exact
        for key in ("p50", "p95", "p99"):
            assert document[key][index] == exact[key]


def test_watched_run_reproduces_the_committed_gate_keys(watched):
    key, obs, _sampler = watched
    exact = latency_summary(obs.flows.latencies())
    assert exact["p50"] * 1e3 == BASELINE[f"{key}/p50_ms"]
    assert exact["p95"] * 1e3 == BASELINE[f"{key}/p95_ms"]
