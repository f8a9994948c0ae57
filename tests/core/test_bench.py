"""The perf-regression gate: BENCH JSON round trip, comparison, CLI exit codes."""

import json

import pytest

from repro.__main__ import main
from repro.bench.baseline import (
    BENCH_FORMAT_VERSION,
    MetricDelta,
    compare_bench,
    figure_of_metric,
    format_comparison,
    higher_is_better,
    is_wall_clock,
    load_bench,
    write_bench,
)
from repro.bench.benchmark import bench_points, run_bench


class TestDirection:
    def test_bandwidth_is_higher_better(self):
        assert higher_is_better("fig6[B=200,double]/mbps")

    def test_latency_is_lower_better(self):
        assert not higher_is_better("fig6[B=200,double]/p50_ms")
        assert not higher_is_better("fig15[Q5,n=5]/p95_ms")

    def test_wall_time_is_lower_better(self):
        assert not higher_is_better("fig6/wall_s")

    def test_event_throughput_is_higher_better(self):
        assert higher_is_better("fig6/events_per_sec")

    def test_wall_clock_family(self):
        assert is_wall_clock("fig6/wall_s")
        assert is_wall_clock("fig15/events_per_sec")
        assert not is_wall_clock("fig6[B=200,double]/mbps")
        assert not is_wall_clock("fig6[B=200,double]/p50_ms")


class TestCompare:
    def test_within_tolerance_is_ok(self):
        deltas, new = compare_bench(
            {"a/mbps": 100.0, "a/p50_ms": 10.0},
            {"a/mbps": 96.0, "a/p50_ms": 10.4},
            tolerance_pct=5.0,
        )
        assert not any(d.regressed for d in deltas)
        assert new == []

    def test_bandwidth_drop_regresses(self):
        deltas, _ = compare_bench(
            {"a/mbps": 100.0}, {"a/mbps": 90.0}, tolerance_pct=5.0
        )
        (delta,) = deltas
        assert delta.regressed
        assert delta.delta_pct == pytest.approx(-10.0)

    def test_bandwidth_gain_never_regresses(self):
        deltas, _ = compare_bench(
            {"a/mbps": 100.0}, {"a/mbps": 150.0}, tolerance_pct=5.0
        )
        assert not deltas[0].regressed

    def test_latency_rise_regresses(self):
        deltas, _ = compare_bench(
            {"a/p95_ms": 10.0}, {"a/p95_ms": 11.0}, tolerance_pct=5.0
        )
        assert deltas[0].regressed

    def test_latency_drop_never_regresses(self):
        deltas, _ = compare_bench(
            {"a/p95_ms": 10.0}, {"a/p95_ms": 5.0}, tolerance_pct=5.0
        )
        assert not deltas[0].regressed

    def test_missing_metric_regresses(self):
        deltas, _ = compare_bench({"gone/mbps": 100.0}, {})
        (delta,) = deltas
        assert delta.regressed
        assert "MISSING" in delta.describe()

    def test_new_metric_is_informational(self):
        deltas, new = compare_bench({}, {"fresh/mbps": 1.0})
        assert deltas == []
        assert new == ["fresh/mbps"]
        assert "not in baseline" in format_comparison(deltas, new)

    def test_format_mentions_regression_count(self):
        deltas, new = compare_bench({"a/mbps": 100.0}, {"a/mbps": 50.0})
        text = format_comparison(deltas, new)
        assert "1 regression(s)" in text
        assert "REGRESSED" in text

    def test_wall_clock_gets_wide_tolerance(self):
        # 40% slower wall time: noisy host, not a regression.
        deltas, _ = compare_bench(
            {"fig6/wall_s": 10.0, "fig6/events_per_sec": 1000.0},
            {"fig6/wall_s": 14.0, "fig6/events_per_sec": 600.0},
            tolerance_pct=5.0,
        )
        assert not any(d.regressed for d in deltas)

    def test_wall_clock_collapse_still_regresses(self):
        deltas, _ = compare_bench(
            {"fig6/events_per_sec": 1000.0},
            {"fig6/events_per_sec": 400.0},
            tolerance_pct=5.0,
        )
        (delta,) = deltas
        assert delta.regressed

    def test_zero_baseline_has_no_delta_pct(self):
        delta = MetricDelta("a/mbps", baseline=0.0, current=1.0, tolerance_pct=5.0)
        assert delta.delta_pct is None
        assert not delta.regressed


class TestRoundTrip:
    def test_write_load(self, tmp_path):
        path = tmp_path / "bench.json"
        metrics = {"a/mbps": 123.456, "a/p50_ms": 7.5}
        write_bench(str(path), metrics, repeats=1)
        assert load_bench(str(path)) == metrics
        document = json.loads(path.read_text())
        assert document["version"] == BENCH_FORMAT_VERSION
        assert document["repeats"] == 1

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 999, "metrics": {}}))
        with pytest.raises(ValueError, match="version"):
            load_bench(str(path))


class TestBenchPoints:
    def test_sweep_covers_the_three_mechanisms(self):
        names = [p.key for p in bench_points()]
        assert any(n.startswith("fig6[") for n in names)
        assert any("seq" in n for n in names if n.startswith("fig8["))
        assert any("bal" in n for n in names if n.startswith("fig8["))
        assert "fig15[Q5,n=5]" in names
        assert len(names) == len(set(names))


class TestGateSweeps:
    def test_each_figure_runs_as_one_sweep(self, monkeypatch):
        """`bench --jobs N` used to be a no-op at the default --repeats 1:
        one measurement per point is a one-task sweep, which runs inline.
        A figure's points are now one sweep, so its tasks can fan out."""
        from repro.core.parallel import SweepExecutor

        sweeps = []
        run = SweepExecutor.run
        monkeypatch.setattr(
            SweepExecutor, "run",
            lambda self, tasks: sweeps.append((self.jobs, len(tasks))) or run(self, tasks),
        )
        monkeypatch.setattr(SweepExecutor, "map", lambda self, fn, tasks: [fn(t) for t in tasks])
        metrics = run_bench(jobs=2, figures={"fig6", "fig8"}).metrics
        assert sweeps == [(2, 3), (2, 2)]
        assert {figure_of_metric(name) for name in metrics} == {"fig6", "fig8"}
        assert "fig6/wall_s" in metrics and "fig8[B=100000,bal,double]/p95_ms" in metrics


@pytest.mark.slow
class TestBenchCli:
    """End-to-end gate: record a baseline, compare against it, doctor it."""

    def test_no_output_requested_is_usage_error(self, capsys):
        assert main(["bench"]) == 2
        assert "nothing to do" in capsys.readouterr().err.lower()

    def test_only_scale_with_floor(self, tmp_path, capsys):
        """--only restricts the run; --scale-floor gates it absolutely."""
        out = tmp_path / "scale.json"
        assert main([
            "bench", "--only", "scale", "--scale-shape", "4x4x2",
            "--scale-floor", "1", "--out", str(out),
        ]) == 0
        assert "clears the floor" in capsys.readouterr().out
        metrics = json.loads(out.read_text())["metrics"]
        assert set(metrics) == {
            "scale[torus=4x4x2]/events_per_sec",
            "scale[torus=4x4x2]/wall_s",
            "scale[torus=4x4x2]/mqs_mbps",
        }
        # an impossible floor fails the gate
        assert main([
            "bench", "--only", "scale", "--scale-shape", "4x4x2",
            "--scale-floor", "1e15",
        ]) == 1
        assert "below the floor" in capsys.readouterr().out

    def test_only_subsets_the_baseline_comparison(self, tmp_path, capsys):
        """A figure absent from an --only run must not read as missing."""
        baseline = tmp_path / "baseline.json"
        assert main([
            "bench", "--only", "fig15", "--only", "scale",
            "--scale-shape", "4x4x2", "--out", str(baseline),
        ]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--only", "fig15", "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out
        assert "scale" not in out  # the scale metrics were subset away

    def test_unknown_only_figure_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--only", "fig99", "--scale-floor", "1"])
        assert exit_.value.code == 2
        assert "--only: invalid choice: 'fig99'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown bench figure"):
            run_bench(figures={"fig99"})

    def test_bad_scale_shape_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([
                "bench", "--only", "scale", "--scale-shape", "16x16",
                "--scale-floor", "1",
            ])
        assert exit_.value.code == 2
        assert "torus shape" in capsys.readouterr().err

    def test_record_then_gate_then_doctored_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--out", str(baseline)]) == 0
        capsys.readouterr()

        # Drop the host-dependent wall-clock family from the recorded
        # baseline: two back-to-back runs on a loaded host can swing a
        # 0.01 s figure past even the wide wall-clock tolerance, and this
        # test pins the *simulated* metrics, which are bit-stable.
        document = json.loads(baseline.read_text())
        document["metrics"] = {
            name: value for name, value in document["metrics"].items()
            if not name.endswith(("/wall_s", "/events_per_sec"))
        }
        baseline.write_text(json.dumps(document))

        # same revision, same seeds: the gate passes
        assert main(["bench", "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

        # doctor the baseline so current bandwidth looks like a collapse
        document = json.loads(baseline.read_text())
        name = next(k for k in document["metrics"] if k.endswith("/mbps"))
        document["metrics"][name] *= 10.0
        baseline.write_text(json.dumps(document))
        assert main(["bench", "--baseline", str(baseline)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

        # --warn-only reports but never fails the build
        assert main(["bench", "--baseline", str(baseline), "--warn-only"]) == 0
