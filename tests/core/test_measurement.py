"""Unit tests for the bandwidth-measurement harness."""

import math
from pathlib import Path

import pytest

from repro.analysis.verifier import verify_plan
from repro.bench.baseline import figure_of_metric, load_bench
from repro.bench.benchmark import bench_points
from repro.bench.query_stream import DEFAULT_SCALE, SMOKE_SCALE, build_query, query_order
from repro.core.experiments import FIGURES, ablations, contention, fig6, fig8, fig15, scaling
from repro.core.measurement import (
    PointSpec,
    measure_points,
    measure_query_bandwidth,
    run_sweep,
    verify_point,
)
from repro.core.parallel import compile_queries
from repro.engine.settings import ExecutionSettings
from repro.hardware.environment import EnvironmentConfig
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.instrument import OBSERVE_LEVELS
from repro.scsql.plan import compile_plan
from repro.util.errors import PlanVerificationError

REPO_ROOT = Path(__file__).resolve().parents[2]
(FIG6,), (FIG8,), (FIG15,), (SELECTOR, BUFFERS), (SCALING,), (MULTIQUERY,) = FIGURES.values()

QUERY = (
    "select extract(b) from sp a, sp b "
    "where b=sp(count(extract(a)), 'bg', 0) "
    "and a=sp(gen_array(100000,5), 'bg', 1);"
)
PAYLOAD = 100_000 * 5


class TestMeasureQueryBandwidth:
    def test_repeats_and_summary(self):
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=3)
        assert len(result.mbps.samples) == 3
        assert len(result.reports) == 3
        assert result.mean_mbps > 0
        assert result.payload_bytes == PAYLOAD

    def test_each_repeat_is_an_independent_environment(self):
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=3)
        durations = [r.duration for r in result.reports]
        # Jitter seeds differ, so runs are close but not identical.
        assert len(set(durations)) > 1
        assert result.mbps.std / result.mbps.mean < 0.05

    def test_base_seed_controls_reproducibility(self):
        first = measure_query_bandwidth(QUERY, PAYLOAD, repeats=2, base_seed=7)
        second = measure_query_bandwidth(QUERY, PAYLOAD, repeats=2, base_seed=7)
        assert first.mbps.samples == second.mbps.samples

    def test_settings_are_applied(self):
        small = measure_query_bandwidth(
            QUERY, PAYLOAD, settings=ExecutionSettings(mpi_buffer_bytes=200), repeats=1
        )
        tuned = measure_query_bandwidth(
            QUERY, PAYLOAD, settings=ExecutionSettings(mpi_buffer_bytes=1000), repeats=1
        )
        assert tuned.mean_mbps > small.mean_mbps

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            measure_query_bandwidth(QUERY, PAYLOAD, repeats=0)

    def test_prepare_hook_runs(self):
        # The hook itself is gone (nothing but this test ever passed one);
        # the fact it witnessed survives: every repeat gets its own fresh
        # environment, here seen through each repeat's own simulator.
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=2, observe="metrics")
        first, second = result.observations
        assert first.sim is not None and second.sim is not None
        assert first.sim is not second.sim

    def test_str_rendering(self):
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=1)
        assert "Mbps" in str(result)

    def test_single_repeat_statistics_are_finite(self):
        """repeats=1 must not produce NaN std or a divide-by-zero."""
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=1)
        assert len(result.mbps.samples) == 1
        assert result.mbps.std == 0.0
        assert math.isfinite(result.mean_mbps) and result.mean_mbps > 0
        assert result.observations == []  # unobserved by default


class TestObservedMeasurement:
    def test_one_instrumentation_per_repeat(self):
        result = measure_query_bandwidth(
            QUERY, PAYLOAD, repeats=3, base_seed=4, observe="flows"
        )
        # One distinct hub per repeat, in seed order: repeat k ran seed
        # base_seed + k, and hub k holds report k's published RP statistics.
        assert len(result.observations) == 3
        assert len({id(obs) for obs in result.observations}) == 3
        for k, (obs, report) in enumerate(zip(result.observations, result.reports)):
            assert isinstance(obs, Instrumentation)
            solo = measure_query_bandwidth(QUERY, PAYLOAD, repeats=1, base_seed=4 + k)
            assert solo.reports[0].duration == report.duration
            published = MetricsRegistry()
            for stats in report.rp_statistics.values():
                stats.publish(published)
            hub = obs.snapshot()
            assert {name: value for name, value in hub.gauges.items()
                    if name.startswith("rp.")} == {
                name: gauge.value for name, gauge in published.gauges.items()
            }
            assert hub.counter("torus.payload_bytes") == PAYLOAD
            # the hub outlives the measured query: its clock spans it
            assert hub.now >= report.duration
            assert hub.counter("sim.events_processed") > 0
            assert obs.resource_busy_time("coproc[0]") > 0.0


class TestSweepValidation:
    """measure_points rejects a malformed sweep before compiling anything."""

    @staticmethod
    def _spec(key, count):
        return PointSpec(
            key=key,
            query=QUERY.replace("gen_array(100000,5)", f"gen_array(100000,{count})"),
            payload_bytes=100_000 * count,
        )

    def test_duplicate_point_keys_are_rejected(self, monkeypatch):
        # On the parent this returned ONE result and the first spec's task
        # ran the second spec's plan (result [8] for both).
        compiled = []
        monkeypatch.setattr(
            "repro.core.parallel.compile_plan",
            lambda *args, **kwargs: compiled.append(args),
        )
        with pytest.raises(ValueError, match="duplicate sweep point key.*'p'"):
            measure_points([self._spec("p", 2), self._spec("p", 8)], repeats=1)
        assert compiled == []

    def test_distinct_keys_run_their_own_plans(self):
        results = measure_points([self._spec("p", 2), self._spec("q", 8)], repeats=1)
        assert results["p"].reports[0].result == [2]
        assert results["q"].reports[0].result == [8]

    def test_unknown_observe_level_is_rejected_before_compile(self, monkeypatch):
        compiled = []
        monkeypatch.setattr(
            "repro.core.parallel.compile_plan",
            lambda *args, **kwargs: compiled.append(args),
        )
        with pytest.raises(ValueError, match="unknown observe level 'everything'"):
            measure_points([self._spec("p", 2)], repeats=1, jobs=2, observe="everything")
        assert compiled == []

    def test_colliding_session_queries_fail_naming_the_point(self):
        """Two queries of one session pin the same BlueGene nodes: the
        second one's SCSQ201, as `MultiQuerySession.submit` would raise."""
        spec = PointSpec(key="pair", query=(("qA", QUERY), ("qB", QUERY)), payload_bytes=PAYLOAD)
        with pytest.raises(PlanVerificationError, match="failed for 'pair'") as raised:
            measure_points([spec], repeats=1)
        assert {d.code for d in raised.value.diagnostics} == {"SCSQ201"}

    @pytest.mark.parametrize("level", OBSERVE_LEVELS)
    def test_each_level_builds_its_hub(self, level):
        result = measure_query_bandwidth(QUERY, PAYLOAD, repeats=1, observe=level)
        if level == "none":
            assert result.observations == []
            return
        (obs,) = result.observations
        assert obs.snapshot().counter("torus.payload_bytes") == PAYLOAD
        assert obs.flows.enabled is (level != "metrics")
        assert obs.tracer.enabled is (level == "trace")


def walk_figures():
    """Every point of every sweep, verified as `measure_points` verifies it
    before a run, and labelled by its sweep's point format."""
    default = EnvironmentConfig()
    return [
        verify_point(
            compile_queries(spec.query, spec.settings), spec,
            spec.env_config or default, sweep.point.format(k=spec.key),
        )
        for sweeps in FIGURES.values() for sweep in sweeps
        for spec in sweep.specs()
    ]


class TestSweepBuilders:
    """A figure's sweep is written down once: `run_sweep` measures exactly its
    row's builder's specs, the gate samples those builders, and every spec
    verifies the way `measure_points` verifies it before running it."""

    @staticmethod
    def _measured(monkeypatch):
        """Spy on `run_sweep`'s `measure_points`: [(specs, env_config), ...]."""
        calls = []

        def spy(specs, env_config=None, **_kwargs):
            calls.append((list(specs), env_config))
            return {}

        monkeypatch.setattr("repro.core.measurement.measure_points", spy)
        return calls

    @pytest.mark.parametrize("sweep, builder, kwargs", [
        pytest.param(FIG6, fig6.fig6_specs,
                     {"buffer_sizes": (300, 7000), "target_buffers": 90},
                     id="fig6-run_sweep"),
        pytest.param(FIG8, fig8.fig8_specs,
                     {"buffer_sizes": (4000,), "target_buffers": 70},
                     id="fig8-run_sweep"),
        pytest.param(FIG15, fig15.fig15_specs,
                     {"stream_counts": (2, 3), "queries": (4, 6),
                      "array_bytes": 50_000, "array_count": 2},
                     id="fig15-run_sweep"),
        pytest.param(SELECTOR, ablations.node_selection_specs,
                     {"stream_counts": (3,), "array_bytes": 60_000, "count": 2},
                     id="ablations-run_sweep-selector"),
        pytest.param(BUFFERS, ablations.buffer_choice_specs,
                     {"buffer_sizes": (800, 9000)},
                     id="ablations-run_sweep-buffers"),
        pytest.param(MULTIQUERY, contention.contention_specs,
                     {"points": ((2, 1, "same", "shared"),), "array_bytes": 50_000,
                      "array_count": 2},
                     id="multiquery-run_sweep"),
    ])
    def test_run_measures_exactly_the_builders_specs(
        self, monkeypatch, sweep, builder, kwargs
    ):
        calls = self._measured(monkeypatch)
        run_sweep(sweep, **kwargs)
        assert calls == [(builder(**kwargs), None)]
        run_sweep(sweep)
        assert calls[1] == (builder(), None)

    def test_scaling_measures_one_sweep_per_environment(self, monkeypatch):
        """One flat sweep now; each point still carries the environment of
        its (partition, uplink) pair."""
        calls = self._measured(monkeypatch)
        kwargs = {
            "partitions": (((4, 4, 2), 4), ((8, 4, 4), 16)),
            "uplinks_gbps": (2.5,), "queries": (6,), "array_bytes": 40_000,
            "array_count": 2,
        }
        run_sweep(SCALING, **kwargs)
        assert calls == [(scaling.scaling_specs(**kwargs), None)]
        ((specs, _config),) = calls
        assert [spec.env_config.bluegene.torus_shape for spec in specs] == [
            (4, 4, 2), (8, 4, 4),
        ]
        assert [spec.env_config.backend_nodes for spec in specs] == [4, 16]

    def test_gate_points_are_the_committed_baselines(self):
        keys = {point.key for point in bench_points()}
        figures = {figure_of_metric(key) for key in keys}
        recorded = load_bench(str(REPO_ROOT / "BENCH_baseline.json"))
        assert keys == {
            name.rsplit("/", 1)[0] for name in recorded
            if figure_of_metric(name) in figures
        }

    def test_analyze_sweeps_verifies_every_spec_of_every_builder(self):
        """Each sweep point on its own topology under its own selector."""
        reports = walk_figures()
        specs = [
            spec for sweeps in FIGURES.values() for sweep in sweeps
            for spec in sweep.specs()
        ]
        assert len(reports) == len(specs) == 166
        labels = [report.label for report in reports]
        assert len(set(labels)) == len(labels)
        # a non-default partition and the knowledge-based selector
        assert "scaling Q5 io=16 uplink=1G" in labels
        assert "ablation selector=knowledge n=8" in labels
        assert [r.format_text() for r in reports if not r.ok()] == []

    def test_every_plan_the_repo_deploys_verifies(self):
        """Every benchmark deck query at both scales for streams 0-3 (every
        kind x every per-stream source name and file range); the sweep
        points are the test above."""
        deck = [
            verify_plan(
                compile_plan(build_query(kind, stream_id, scale).query),
                label=f"bench {scale.name} s{stream_id} {kind}",
            )
            for scale in (DEFAULT_SCALE, SMOKE_SCALE)
            for stream_id in range(4)
            for kind in query_order(stream_id)
        ]
        assert len(deck) == 24
        assert [r.format_text() for r in deck if not r.ok()] == []

    def test_undeployable_point_fails_run_and_walk_alike(self, monkeypatch):
        """40 receivers exhaust psetrr() on the default partition."""
        kwargs = {"stream_counts": (40,), "queries": (5,)}
        with pytest.raises(PlanVerificationError) as raised:
            run_sweep(FIG15, **kwargs, repeats=1)
        run_codes = [d.code for d in raised.value.diagnostics]
        assert "SCSQ104" in run_codes
        # a NamedTuple key reads as the plain tuple it equals
        assert "(5, 40)" in str(raised.value) and "Fig15Key" not in str(raised.value)

        specs = fig15.fig15_specs(**kwargs)
        monkeypatch.setitem(FIGURES, "fig15", (FIG15._replace(specs=lambda: specs),))
        (report,) = [r for r in walk_figures() if r.label == "fig15 Q5 n=40"]
        assert [d.code for d in report.errors] == run_codes
