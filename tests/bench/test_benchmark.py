"""Power/throughput benchmark modes and their BENCH v2 gate integration."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.bench.baseline import (
    compare_bench,
    load_bench,
    load_digests,
    physics_digest,
    write_bench,
)
from repro.bench.benchmark import (
    run_bench,
    run_fault_benchmark,
    run_power_mode,
    run_throughput_mode,
)
from repro.bench.query_stream import QUERY_KINDS, SMOKE_SCALE, build_query, registered
from repro.coordinator.deployer import Deployer
from repro.hardware.environment import EnvironmentConfig, shared_template
from repro.obs.flow import FlowRecorder
from repro.obs.instrument import instrumentation_for
from repro.obs.live import DEFAULT_WINDOW
from repro.scsql.plan import compile_plan
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
    """--live-out through power/throughput: series ride along, the gated
    scalars stay untouched."""

    def test_power_mode_series_with_unchanged_metrics(self):
        plain = run_power_mode(scale=SMOKE_SCALE)
        live = run_power_mode(scale=SMOKE_SCALE, live=True)
        assert plain.series is None
        assert live.metrics == plain.metrics  # sampling must not move the gate
        assert live.digests == plain.digests
        assert set(live.series) == {f"power[{kind}]" for kind in QUERY_KINDS}
        for document in live.series.values():
            assert document["windows"] >= 1
            assert len(document["p95"]) == document["windows"]
            assert document["window_s"] == DEFAULT_WINDOW

    def test_throughput_mode_series_with_unchanged_metrics(self):
        plain = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1)
        live = run_throughput_mode(2, scale=SMOKE_SCALE, rounds=1, live=True)
        assert plain.series is None
        assert live.metrics == plain.metrics
        assert set(live.series) == {"throughput[n=2]/round0"}

    def test_series_ride_bench_json_without_touching_the_gate(self, tmp_path):
        import json

        live = run_power_mode(scale=SMOKE_SCALE, live=True)
        path = tmp_path / "bench.json"
        write_bench(str(path), live.metrics, repeats=1, series=live.series)
        # the gate loader reads only the scalar metrics...
        assert load_bench(str(path)) == live.metrics
        # ...but the series are in the document for dashboards to pick up
        document = json.loads(path.read_text())
        assert set(document["series"]) == set(live.series)


class TestPhysicsDigest:
    """A digest per gate point and power-mode query: what was delivered,
    and when, not how the kernel got there."""

    @pytest.fixture(scope="class")
    def fig6(self):
        return run_bench(figures={"fig6"})

    def test_every_gate_point_has_one(self, fig6):
        assert sorted(fig6.digests) == sorted(
            name.rsplit("/", 1)[0] for name in fig6.metrics if name.endswith("/mbps")
        )

    def test_order_and_ids_are_not_physics(self):
        """Record order, buffer ids and how the streams' flow ids interleave
        are bookkeeping; a result or a delivery time is not."""
        records = _completed_records("linear-road")
        digest = physics_digest([(records, [1])])
        streams = sorted({record.stream_id for record in records})
        renumbered = [
            record.replace(
                buffer_id=record.buffer_id + 1000,
                flow_id=record.flow_id + 1000 * streams.index(record.stream_id),
            )
            for record in records
        ]
        random.Random(0).shuffle(renumbered)
        assert len(streams) > 1
        assert physics_digest([(renumbered, [1])]) == digest
        assert physics_digest([(records, [2])]) != digest
        late = records[0].replace(delivered=records[0].delivered + 1e-9)
        assert physics_digest([([late, *records[1:]], [1])]) != digest

    def test_a_shifted_delivery_moves_the_digest_and_no_metric(self, fig6, monkeypatch):
        """Mutation: in every point, the first data buffer is delivered 1 ns
        late and the second 1 ns early.  Every BENCH key stays equal; every
        digest differs, so the digest gate is strictly stronger."""
        complete = FlowRecorder.complete
        delivered = {}

        def shifted(recorder, buffer, now):
            if not buffer.eos:
                count = delivered[id(recorder)] = delivered.get(id(recorder), 0) + 1
                now += {1: 1e-9, 2: -1e-9}.get(count, 0.0)
            complete(recorder, buffer, now)

        monkeypatch.setattr(FlowRecorder, "complete", shifted)
        mutated = run_bench(figures={"fig6"})
        assert mutated.metrics == fig6.metrics
        assert all(mutated.digests[name] != fig6.digests[name] for name in fig6.digests)

    def test_the_document_is_byte_identical_under_two_hash_seeds(self, tmp_path):
        documents = []
        for hash_seed in ("1", "7"):
            for argv in (
                ["--only", "fig6", "--only", "fig8", "--only", "fig15"],
                ["--mode", "power", "--smoke", "--seed", "0"],
            ):
                out = tmp_path / f"bench-{hash_seed}-{len(documents)}.json"
                subprocess.run(
                    [sys.executable, "-m", "repro", "bench", *argv, "--out", str(out)],
                    env={**os.environ, "PYTHONHASHSEED": hash_seed,
                         "PYTHONPATH": str(Path(repro.__file__).parents[1])},
                    capture_output=True, check=True,
                )
                documents.append(out.read_bytes())
        assert documents[:2] == documents[2:]
        assert b'"digests"' in documents[0] and b'"digests"' in documents[1]


def _completed_records(kind):
    """The completed flow records of one smoke deck query, flows hooks on."""
    query = build_query(kind, 0, SMOKE_SCALE, 0)
    obs = instrumentation_for("flows")
    with registered([query]):
        deployer = Deployer(shared_template(EnvironmentConfig()).fork(seed=0, obs=obs))
        deployer.run(compile_plan(query.query))
        deployer.teardown()
    return list(obs.flows.completed)


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

    def test_power_run_reproduces_its_committed_keys_and_digests(self, capsys):
        committed = Path(__file__).resolve().parents[2] / "BENCH_baseline.json"
        code = main(["bench", "--mode", "power", "--smoke", "--seed", "0",
                     "--baseline", str(committed)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "=> 0 of 7 baseline metric(s) differ" in out
        assert "=> 0 of 3 baseline digest(s) differ" in out
        assert sorted(load_digests(str(committed))) == sorted(
            [f"power[{kind}]" for kind in QUERY_KINDS]
            + [name.rsplit("/", 1)[0] for name in load_bench(str(committed))
               if name.startswith("fig") and name.endswith("/mbps")]
        )

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
