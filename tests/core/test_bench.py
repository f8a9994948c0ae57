"""The perf-regression gate: BENCH JSON round trip, comparison, CLI exit codes."""

import json
import math
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.baseline import (
    BENCH_FORMAT_VERSION,
    compare_bench,
    figure_of_metric,
    load_bench,
    write_bench,
)
from repro.bench.benchmark import BENCH_FIGURES, bench_points, run_bench

REPO_ROOT = Path(__file__).resolve().parents[2]


def _verdicts(name, baseline, *currents):
    """The gate's verdict word for ``name`` at each current value."""
    return [
        compare_bench({name: baseline}, {name: current})[0][0].rsplit(" ", 1)[-1]
        for current in currents
    ]


class TestDirection:
    """No name suffix sets a direction: for each family the old suffix rule
    called higher- or lower-is-better, a move either way differs and only
    the recorded value is equal."""

    def test_bandwidth_is_higher_better(self):
        assert _verdicts("fig6[B=200,double]/mbps", 100.0, 150.0, 90.0, 100.0) == [
            "DIFFERS", "DIFFERS", "equal",
        ]

    def test_latency_is_lower_better(self):
        for name in ("fig6[B=200,double]/p50_ms", "fig15[Q5,n=5]/p95_ms"):
            assert _verdicts(name, 10.0, 5.0, 11.0, 10.0) == [
                "DIFFERS", "DIFFERS", "equal",
            ]

    def test_wall_time_is_lower_better(self):
        """The ``_s`` suffix: simulated durations (no host time is gated)."""
        for name in ("fault[kill-node,n=2]/recovery_s", "adaptive[fig8]/recover_s"):
            assert _verdicts(name, 1.0, 0.5, 1.5, 1.0) == [
                "DIFFERS", "DIFFERS", "equal",
            ]

    def test_event_throughput_is_higher_better(self):
        """Rates and ratios: a rise differs like a fall."""
        for name in ("throughput[n=2]/aggregate_mbps",
                     "fault[kill-node,n=2]/retained_ratio"):
            assert _verdicts(name, 0.5, 0.9, 0.4, 0.5) == [
                "DIFFERS", "DIFFERS", "equal",
            ]


class TestCompare:
    """Every key is simulated and seeded: the gate is an equality."""

    def test_equal_values_pass(self):
        lines, problems = compare_bench(
            {"a/mbps": 100.0, "a/p50_ms": 10.0},
            {"a/mbps": 100.0, "a/p50_ms": 10.0},
        )
        assert problems == 0
        assert lines == [
            "a/mbps: 100.0 equal",
            "a/p50_ms: 10.0 equal",
            "=> 0 of 2 baseline metric(s) differ",
        ]

    def test_bandwidth_drop_regresses(self):
        lines, problems = compare_bench({"a/mbps": 100.0}, {"a/mbps": 90.0})
        assert problems == 1
        assert lines[0] == "a/mbps: 100.0 -> 90.0 DIFFERS"

    def test_latency_rise_regresses(self):
        _, problems = compare_bench({"a/p95_ms": 10.0}, {"a/p95_ms": 11.0})
        assert problems == 1

    def test_bandwidth_gain_never_regresses(self):
        """A gain is no longer forgiven: it differs like a loss."""
        lines, problems = compare_bench({"a/mbps": 100.0}, {"a/mbps": 150.0})
        assert problems == 1
        assert lines[0] == "a/mbps: 100.0 -> 150.0 DIFFERS"

    def test_latency_drop_never_regresses(self):
        """A faster run is a code change too: it differs like a slower one."""
        lines, problems = compare_bench({"a/p95_ms": 10.0}, {"a/p95_ms": 5.0})
        assert problems == 1
        assert lines[0] == "a/p95_ms: 10.0 -> 5.0 DIFFERS"

    def test_one_tolerance_for_every_key(self):
        """The tolerance is zero for every key: one ulp differs, and the
        line shows it, where ``:g`` would print both values the same."""
        baseline = {"a/mbps": 1.0, "b/recovery_s": 0.1, "c/retained_ratio": 0.7}
        current = {name: math.nextafter(value, math.inf)
                   for name, value in baseline.items()}
        lines, problems = compare_bench(baseline, current)
        assert problems == 3
        assert "b/recovery_s: 0.1 -> 0.10000000000000002 DIFFERS" in lines

    def test_missing_metric_regresses(self):
        lines, problems = compare_bench({"gone/mbps": 100.0}, {})
        assert problems == 1
        assert lines[0] == "gone/mbps: MISSING from current run (baseline 100.0)"

    def test_new_metric_is_informational(self):
        lines, problems = compare_bench({}, {"fresh/mbps": 1.0})
        assert problems == 0
        assert lines == [
            "fresh/mbps: new metric (not in baseline)",
            "=> 0 of 0 baseline metric(s) differ",
        ]

    def test_format_mentions_regression_count(self):
        lines, _ = compare_bench(
            {"a/mbps": 100.0, "b/mbps": 1.0}, {"a/mbps": 50.0, "b/mbps": 1.0}
        )
        assert lines[-1] == "=> 1 of 2 baseline metric(s) differ"

    def test_zero_baseline_has_no_delta_pct(self):
        """No line carries a percentage, so a zero baseline needs no case."""
        lines, problems = compare_bench({"a/mbps": 0.0}, {"a/mbps": 1.0})
        assert problems == 1
        assert lines[0] == "a/mbps: 0.0 -> 1.0 DIFFERS"

    def test_zero_baseline_formats_without_a_percentage(self):
        """Reachable: flapping with no replan records recovery_s = 0.0."""
        lines, problems = compare_bench(
            {"f/recovery_s": 0.0, "g/recovery_s": 0.0},
            {"f/recovery_s": 0.0, "g/recovery_s": 0.5},
        )
        assert lines == [
            "f/recovery_s: 0.0 equal",
            "g/recovery_s: 0.0 -> 0.5 DIFFERS",
            "=> 1 of 2 baseline metric(s) differ",
        ]
        assert problems == 1


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
        assert "=> 0 of 9 baseline metric(s) differ" in out
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
        assert "=> 0 of 33 baseline metric(s) differ" in out

        # doctor the baseline so current bandwidth looks like a collapse
        document = json.loads(baseline.read_text())
        name = next(k for k in document["metrics"] if k.endswith("/mbps"))
        document["metrics"][name] *= 10.0
        baseline.write_text(json.dumps(document))
        assert main(["bench", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert f"{name}: {document['metrics'][name]!r} -> " in out
        assert "=> 1 of 33 baseline metric(s) differ" in out

    def test_one_ulp_off_the_committed_baseline_fails(self, tmp_path, capsys):
        """Every key is simulated and seeded: a drift of one ulp in one key
        is a code change, and the gate names that key."""
        document = json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())
        name = "fig6[B=100000,double]/mbps"
        value = document["metrics"][name]
        document["metrics"][name] = math.nextafter(value, math.inf)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(document))
        assert main(["bench", "--only", "fig6", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert f"{name}: {document['metrics'][name]!r} -> {value!r} DIFFERS" in out
        assert "=> 1 of 9 baseline metric(s) differ" in out

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
