"""The live-telemetry CLI surface: ``repro top`` and the --live flags."""

import json

import pytest

from repro.__main__ import main


def read_jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestTop:
    def test_once_renders_table_and_verdict(self, capsys):
        assert main(["top", "--point", "fig15", "--once"]) == 0
        out = capsys.readouterr().out
        assert "fig15[Q5,n=5]" in out
        assert "p95" in out  # the table header
        assert "bottleneck: io-proxy[1]" in out
        assert "saturated pset:io-proxy[1]" in out

    def test_streaming_mode_prints_rows_as_windows_close(self, capsys):
        assert main(["top", "--point", "fig15"]) == 0
        out = capsys.readouterr().out
        # one row per window, announced before the cumulative footer
        assert out.index("io-proxy[1]") < out.index("cumulative:")

    def test_live_out_and_prom_exports(self, tmp_path, capsys):
        series = tmp_path / "top.jsonl"
        prom = tmp_path / "top.prom"
        assert main([
            "top", "--point", "fig15", "--once",
            "--live-out", str(series), "--prom", str(prom),
        ]) == 0
        records = read_jsonl(series)
        kinds = [record["kind"] for record in records]
        assert kinds[0] == "meta"
        assert "window" in kinds and "health" in kinds
        meta = records[0]
        assert meta["label"] == "fig15[Q5,n=5]"
        assert meta["culprit"] == "io-proxy[1]"
        exposition = prom.read_text()
        assert "repro_flow_latency_seconds" in exposition
        assert 'quantile="0.99"' in exposition
        assert "repro_health_events_total" in exposition

    def test_unknown_point_rejected(self, capsys):
        assert main(["top", "--point", "nonsense", "--once"]) == 2
        assert "unknown sample point" in capsys.readouterr().err

    def test_deterministic_for_fixed_seed(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main([
                "top", "--point", "fig8", "--once",
                "--seed", "5", "--live-out", str(path),
            ]) == 0
        assert read_jsonl(paths[0]) == read_jsonl(paths[1])


class TestBenchLiveFlags:
    def test_gate_mode_rejects_live_flags(self, tmp_path, capsys):
        assert main([
            "bench", "--out", str(tmp_path / "b.json"),
            "--live-out", str(tmp_path / "live.jsonl"),
        ]) == 2
        err = capsys.readouterr().err
        assert "--live-out is not read by --mode gate" in err
        assert "power, throughput" in err

    def test_fault_mode_rejects_live_flags(self, tmp_path, capsys):
        assert main([
            "bench", "--mode", "throughput", "--fault", "kill-node", "--smoke",
            "--live-out", str(tmp_path / "live.jsonl"),
        ]) == 2
        assert (
            "--live-out is not read by --mode throughput --fault"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("argv, flag, readers", [
        (["--mode", "gate", "--smoke"], "--smoke",
         "power, throughput, throughput --fault"),
        (["--mode", "power", "--jobs", "2"], "--jobs",
         "gate, throughput --fault"),
        (["--mode", "gate", "--streams", "2"], "--streams",
         "throughput, throughput --fault"),
    ])
    def test_flag_the_mode_never_reads_is_a_usage_error(
        self, tmp_path, capsys, argv, flag, readers
    ):
        """A silently ignored flag ran the wrong experiment: `--mode gate
        --smoke` was the full gate, 16x16x16 scale figure included."""
        out = tmp_path / "b.json"
        assert main(["bench", "--out", str(out)] + argv) == 2
        err = capsys.readouterr().err
        assert f"{flag} is not read by --mode {argv[1]}" in err
        assert f"(modes that read it: {readers})" in err
        assert not out.exists()

    def test_flag_at_its_default_is_not_passed(self, capsys):
        """`--seed 0` is the parser default, so gate mode does not object
        (and then finds nothing to do)."""
        assert main(["bench", "--seed", "0"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_power_mode_embeds_series(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        live = tmp_path / "live.jsonl"
        assert main([
            "bench", "--mode", "power", "--smoke", "--out", str(out),
            "--live-out", str(live),
        ]) == 0
        document = json.loads(out.read_text())
        assert document["version"] == 2
        assert any(key.startswith("power[") for key in document["series"])
        labels = [record["label"] for record in read_jsonl(live)]
        assert labels == sorted(document["series"])
        assert "windowed series" in capsys.readouterr().out
