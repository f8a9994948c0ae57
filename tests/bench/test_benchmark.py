"""Power/throughput benchmark modes and their BENCH v2 gate integration."""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.baseline import compare_bench, load_bench, write_bench
from repro.bench.benchmark import (
    run_fault_benchmark,
    run_power_mode,
    run_throughput_mode,
)
from repro.bench.query_stream import QUERY_KINDS, SMOKE_SCALE
from repro.util.errors import MeasurementError


class TestPowerMode:
    def test_reports_latency_per_deck_query(self):
        report = run_power_mode(scale=SMOKE_SCALE)
        assert report.mode == "power"
        for kind in QUERY_KINDS:
            assert report.metrics[f"power[{kind}]/latency_ms"] > 0.0
            assert report.metrics[f"power[{kind}]/mbps"] > 0.0
        assert report.metrics["power/geomean_ms"] > 0.0
        assert "geometric mean" in report.describe()

    def test_metric_directions_follow_bench_convention(self):
        """Every power key names its unit: a bandwidth or a latency."""
        report = run_power_mode(scale=SMOKE_SCALE)
        for name in report.metrics:
            assert name.endswith("/mbps") or name.endswith("_ms"), name

    def test_same_seed_reproduces_identical_numbers(self):
        first = run_power_mode(scale=SMOKE_SCALE, seed=7)
        second = run_power_mode(scale=SMOKE_SCALE, seed=7)
        assert first.metrics == second.metrics


class TestThroughputMode:
    def test_reports_per_stream_bandwidth_and_interference(self):
        report = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1)
        tag = "throughput[n=2]"
        for k in range(2):
            assert report.metrics[f"{tag}[s{k}]/mbps"] > 0.0
            # Contending streams cannot beat their solo baseline by more
            # than jitter-level noise.
            assert 0.0 < report.metrics[f"{tag}[s{k}]/interference"] < 1.1
        assert report.metrics[f"{tag}/aggregate_mbps"] == pytest.approx(
            sum(report.metrics[f"{tag}[s{k}]/mbps"] for k in range(2))
        )

    def test_streams_must_be_positive(self):
        with pytest.raises(MeasurementError, match="stream"):
            run_throughput_mode(0, scale=SMOKE_SCALE)

    def test_same_seed_reproduces_identical_numbers(self):
        first = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1, seed=3)
        second = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1, seed=3)
        assert first.metrics == second.metrics

    def test_solo_baselines_can_be_skipped(self):
        report = run_throughput_mode(
            2, scale=SMOKE_SCALE, rounds=1, with_solo=False
        )
        assert not any("interference" in name for name in report.metrics)


class TestBenchGateIntegration:
    """Recovery metrics ride the BENCH v2 gate, which compares by equality."""

    @pytest.fixture(scope="class")
    def fault_metrics(self):
        return run_fault_benchmark(
            "kill-node", 2, scale=SMOKE_SCALE, seed=0
        ).metrics

    def test_round_trips_through_bench_json(self, fault_metrics, tmp_path):
        path = tmp_path / "BENCH_faults.json"
        write_bench(str(path), fault_metrics, repeats=1)
        assert load_bench(str(path)) == fault_metrics

    def test_identical_run_passes_the_gate(self, fault_metrics):
        lines, problems = compare_bench(fault_metrics, dict(fault_metrics))
        assert problems == 0
        assert not any("new metric" in line for line in lines)

    def test_recovery_time_regression_trips_the_gate(self, fault_metrics):
        tag = "fault[kill-node,n=2]"
        # A recovery 4% slower than baseline is a code change: it differs.
        slower = dict(fault_metrics)
        slower[f"{tag}/recovery_s"] *= 1.04
        lines, problems = compare_bench(fault_metrics, slower)
        assert problems == 1
        assert [line for line in lines if line.endswith("DIFFERS")] == [
            f"{tag}/recovery_s: {fault_metrics[f'{tag}/recovery_s']!r} -> "
            f"{slower[f'{tag}/recovery_s']!r} DIFFERS"
        ]

    def test_bandwidth_dip_regression_trips_the_gate(self, fault_metrics):
        tag = "fault[kill-node,n=2]"
        # A dip 4% deeper than baseline differs as well.
        deeper = dict(fault_metrics)
        deeper[f"{tag}/retained_ratio"] *= 0.96
        lines, problems = compare_bench(fault_metrics, deeper)
        assert problems == 1
        differs = [line for line in lines if line.endswith("DIFFERS")]
        assert len(differs) == 1
        assert differs[0].startswith(f"{tag}/retained_ratio: ")

    def test_missing_recovery_metric_counts_as_regression(self, fault_metrics):
        current = {
            name: value
            for name, value in fault_metrics.items()
            if not name.endswith("/recovery_s")
        }
        lines, problems = compare_bench(fault_metrics, current)
        assert problems == 1
        assert any(
            line.startswith(f"{name}: MISSING from current run")
            for name in fault_metrics if name.endswith("/recovery_s")
            for line in lines
        )


class TestLiveSeries:
    """--live-window through power/throughput: series ride along, the
    gated scalars stay untouched."""

    def test_power_mode_series_with_unchanged_metrics(self):
        plain = run_power_mode(scale=SMOKE_SCALE)
        live = run_power_mode(scale=SMOKE_SCALE, live_window=0.0005)
        assert plain.series is None
        assert live.metrics == plain.metrics  # sampling must not move the gate
        assert set(live.series) == {f"power[{kind}]" for kind in QUERY_KINDS}
        for document in live.series.values():
            assert document["windows"] >= 1
            assert len(document["p95"]) == document["windows"]
            assert document["window_s"] == 0.0005

    def test_throughput_mode_series_with_unchanged_metrics(self):
        plain = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1)
        live = run_throughput_mode(
            2, scale=SMOKE_SCALE, rounds=1, live_window=0.0005
        )
        assert plain.series is None
        assert live.metrics == plain.metrics
        assert set(live.series) == {"throughput[n=2]/round0"}

    def test_series_ride_bench_json_without_touching_the_gate(self, tmp_path):
        import json

        live = run_power_mode(scale=SMOKE_SCALE, live_window=0.0005)
        path = tmp_path / "bench.json"
        write_bench(str(path), live.metrics, repeats=1, series=live.series)
        # the gate loader reads only the scalar metrics...
        assert load_bench(str(path)) == live.metrics
        # ...but the series are in the document for dashboards to pick up
        document = json.loads(path.read_text())
        assert set(document["series"]) == set(live.series)


class TestOneBaselineFile:
    """The committed BENCH_baseline.json holds every suite; a run is compared
    against the keys of the suites it was asked to produce, no others."""

    FAULT_RUN = [
        "bench", "--mode", "throughput", "--streams", "2",
        "--fault", "kill-node", "--smoke", "--seed", "0",
    ]
    GATE_RUN = ["bench", "--only", "fig15"]
    RECOVERY = "fault[kill-node,n=2]/recovery_s"

    @pytest.fixture
    def recorded(self):
        """The committed metrics, every suite."""
        committed = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"
        return load_bench(str(committed))

    @staticmethod
    def _gate(argv, metrics, tmp_path, capsys):
        """(exit code, names compared, stdout) of `argv` against `metrics`."""
        path = tmp_path / "BENCH_baseline.json"
        write_bench(str(path), metrics, repeats=1)
        code = main(argv + ["--baseline", str(path)])
        out = capsys.readouterr().out
        compared = [
            line.split(": ")[0] for line in out.splitlines()
            if line.endswith((" equal", " DIFFERS")) or "MISSING" in line
        ]
        return code, compared, out

    def test_fault_run_compares_exactly_its_six_keys(self, recorded, tmp_path, capsys):
        code, compared, out = self._gate(self.FAULT_RUN, recorded, tmp_path, capsys)
        assert code == 0
        assert compared == sorted(n for n in recorded if n.startswith("fault["))
        assert len(compared) == 6
        assert "=> 0 of 6 baseline metric(s) differ" in out

    def test_gate_run_compares_only_the_figures_asked_for(
        self, recorded, tmp_path, capsys
    ):
        code, compared, _out = self._gate(self.GATE_RUN, recorded, tmp_path, capsys)
        assert code == 0
        assert compared == sorted(n for n in recorded if n.startswith("fig15["))
        assert len(compared) == 9

    def test_doctored_recovery_fails_only_the_fault_run(
        self, recorded, tmp_path, capsys
    ):
        doctored = dict(recorded)
        doctored[self.RECOVERY] *= 0.5
        code, _compared, out = self._gate(self.FAULT_RUN, doctored, tmp_path, capsys)
        assert code == 1
        assert f"{self.RECOVERY}: " in out and "DIFFERS" in out
        code, _compared, out = self._gate(self.GATE_RUN, doctored, tmp_path, capsys)
        assert code == 0
        assert "DIFFERS" not in out

    def test_key_missing_within_a_suite_that_ran_is_a_regression(
        self, recorded, tmp_path, capsys
    ):
        widened = dict(recorded)
        widened["fault[kill-node,n=2][s2]/mbps"] = 10.0
        code, compared, out = self._gate(self.FAULT_RUN, widened, tmp_path, capsys)
        assert code == 1
        assert len(compared) == 7
        assert "fault[kill-node,n=2][s2]/mbps: MISSING from current run" in out
        code, _compared, _out = self._gate(self.GATE_RUN, widened, tmp_path, capsys)
        assert code == 0
