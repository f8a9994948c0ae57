"""The perf-regression gate: BENCH JSON round trip, comparison, CLI exit codes."""

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.baseline import (
    BENCH_FORMAT_VERSION,
    MetricDelta,
    compare_bench,
    figure_of_metric,
    format_comparison,
    higher_is_better,
    load_bench,
    write_bench,
)
from repro.bench.benchmark import BENCH_FIGURES, bench_points, run_bench

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestDirection:
    def test_bandwidth_is_higher_better(self):
        assert higher_is_better("fig6[B=200,double]/mbps")

    def test_latency_is_lower_better(self):
        assert not higher_is_better("fig6[B=200,double]/p50_ms")
        assert not higher_is_better("fig15[Q5,n=5]/p95_ms")

    def test_wall_time_is_lower_better(self):
        """The ``_s`` suffix: simulated durations (no host time is gated)."""
        assert not higher_is_better("fault[kill-node,n=2]/recovery_s")
        assert not higher_is_better("adaptive[fig8]/recover_s")

    def test_event_throughput_is_higher_better(self):
        """Any name without a duration suffix is a rate."""
        assert higher_is_better("throughput[n=2]/aggregate_mbps")
        assert higher_is_better("fault[kill-node,n=2]/retained_ratio")


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

    def test_one_tolerance_for_every_key(self):
        deltas, _ = compare_bench(
            {"a/mbps": 1.0, "b/recovery_s": 1.0, "c/anything": 1.0}, {},
            tolerance_pct=7.0,
        )
        assert {d.tolerance_pct for d in deltas} == {7.0}

    def test_zero_baseline_has_no_delta_pct(self):
        delta = MetricDelta("a/mbps", baseline=0.0, current=1.0, tolerance_pct=5.0)
        assert delta.delta_pct is None
        assert not delta.regressed

    def test_zero_baseline_formats_without_a_percentage(self):
        """A zero baseline has no percentage to print (reachable: flapping
        with no replan records recovery_s = 0.0); the verdict still holds."""
        same, worse = compare_bench(
            {"f/recovery_s": 0.0, "g/recovery_s": 0.0},
            {"f/recovery_s": 0.0, "g/recovery_s": 0.5},
        )[0]
        assert same.describe() == (
            "f/recovery_s: 0 -> 0 (n/a, lower=better, tol 5%) ok"
        )
        assert worse.describe() == (
            "g/recovery_s: 0 -> 0.5 (n/a, lower=better, tol 5%) REGRESSED"
        )
        assert "1 regression(s)" in format_comparison([same, worse], [])


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
        assert "fig8[B=100000,bal,double]/p95_ms" in metrics


@pytest.mark.slow
class TestBenchCli:
    """End-to-end gate: record a baseline, compare against it, doctor it."""

    def test_no_output_requested_is_usage_error(self, capsys):
        for argv in (["bench"], ["bench", "--only", "scale"]):
            assert main(argv) == 2
            assert (
                "nothing to do (pass --out and/or --baseline)"
                in capsys.readouterr().err
            )

    def test_only_scale(self, tmp_path):
        """--only restricts the run to the scale figure's one key."""
        out = tmp_path / "scale.json"
        assert main([
            "bench", "--only", "scale", "--scale-shape", "4x4x2",
            "--out", str(out),
        ]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert set(metrics) == {"scale[torus=4x4x2]/mqs_mbps"}

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
            main(["bench", "--only", "fig99", "--out", "unused.json"])
        assert exit_.value.code == 2
        assert "--only: invalid choice: 'fig99'" in capsys.readouterr().err
        with pytest.raises(ValueError, match="unknown bench figure"):
            run_bench(figures={"fig99"})

    def test_bad_scale_shape_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([
                "bench", "--only", "scale", "--scale-shape", "16x16",
                "--out", "unused.json",
            ])
        assert exit_.value.code == 2
        assert "torus shape" in capsys.readouterr().err

    def test_record_then_gate_then_doctored_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert main(["bench", "--out", str(baseline)]) == 0
        capsys.readouterr()

        # the committed baseline holds exactly the keys the gate suites produce
        committed = load_bench(str(REPO_ROOT / "BENCH_baseline.json"))
        assert set(load_bench(str(baseline))) == {
            name for name in committed if figure_of_metric(name) in BENCH_FIGURES
        }

        # same revision, same seeds: the gate passes on the file as recorded
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

    def test_recorded_document_is_a_pure_function_of_the_tree(self, tmp_path, capsys):
        """Two runs, and --jobs 1 vs --jobs 2, write byte-identical files
        and print identical stdout (up to the --out path)."""
        argv = ["bench", "--only", "fig6", "--only", "fig15", "--only", "adaptive"]
        runs = []
        for name, extra in (("a", []), ("b", []), ("c", ["--jobs", "2"])):
            path = tmp_path / f"{name}.json"
            assert main(argv + extra + ["--out", str(path)]) == 0
            runs.append(
                (path.read_bytes(), capsys.readouterr().out.replace(str(path), "OUT"))
            )
        assert runs[0] == runs[1] == runs[2]
