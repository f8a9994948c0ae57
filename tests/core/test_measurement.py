"""Unit tests for the bandwidth-measurement harness."""

import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.baseline import figure_of_metric, load_bench
from repro.bench.benchmark import bench_points
from repro.core.experiments import FIGURES, ablations, fig6, fig8, fig15, scaling
from repro.core.measurement import (
    PointSpec,
    measure_points,
    measure_query_bandwidth,
    run_sweep,
)
from repro.engine.settings import ExecutionSettings
from repro.obs import Instrumentation, MetricsRegistry
from repro.obs.instrument import OBSERVE_LEVELS
from repro.util.errors import PlanVerificationError

REPO_ROOT = Path(__file__).resolve().parents[2]
(FIG6,), (FIG8,), (FIG15,), (SELECTOR, BUFFERS), (SCALING,) = FIGURES.values()

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
            "repro.core.measurement.compile_plan",
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
            "repro.core.measurement.compile_plan",
            lambda *args, **kwargs: compiled.append(args),
        )
        with pytest.raises(ValueError, match="unknown observe level 'everything'"):
            measure_points([self._spec("p", 2)], repeats=1, jobs=2, observe="everything")
        assert compiled == []

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


class TestSweepBuilders:
    """A figure's sweep is written down once: `run_sweep` measures exactly its
    row's builder's specs, the gate samples those builders, and `analyze
    --sweeps` verifies every spec the way `measure_points` does before
    running it."""

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

    @staticmethod
    def _sweep_reports(capsys):
        code = main(["analyze", "--sweeps", "--json"])
        return code, json.loads(capsys.readouterr().out)["reports"]

    def test_analyze_sweeps_verifies_every_spec_of_every_builder(self, capsys):
        code, reports = self._sweep_reports(capsys)
        assert code == 0
        specs = [
            spec for sweeps in FIGURES.values() for sweep in sweeps
            for spec in sweep.specs()
        ]
        assert len(reports) == len(specs) == 146
        labels = [report["label"] for report in reports]
        assert len(set(labels)) == len(labels)
        # points the text-only walk never reached: a non-default partition
        # and the knowledge-based selector
        assert "scaling 8x4x4 (5, 16, 1.0)" in labels
        assert "ablation selector ('knowledge', 8)" in labels

    def test_undeployable_point_fails_run_and_walk_alike(self, monkeypatch, capsys):
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
        code, reports = self._sweep_reports(capsys)
        assert code == 1
        (report,) = [r for r in reports if r["label"] == "fig15 (5, 40)"]
        assert [
            d["code"] for d in report["diagnostics"] if d["severity"] == "error"
        ] == run_codes
