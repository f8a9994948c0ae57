"""The --trace / --metrics-out CLI flags, exercised in-process."""

import json

from repro.__main__ import main

QUERY = (
    "select extract(b) from sp a, sp b "
    "where b=sp(count(extract(a)), 'bg', 0) "
    "and a=sp(gen_array(10000,3), 'bg', 1);"
)


def _trace_is_valid_chrome(path: str) -> dict:
    document = json.load(open(path, encoding="utf-8"))
    assert isinstance(document["traceEvents"], list)
    assert document["traceEvents"], "trace must not be empty"
    phases = {event["ph"] for event in document["traceEvents"]}
    assert "M" in phases and "X" in phases
    for event in document["traceEvents"]:
        assert "pid" in event and "tid" in event
        if event["ph"] == "X":
            assert event["dur"] >= 0
    return document


def test_query_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main([
        "query", QUERY, "--trace", str(trace), "--metrics-out", "-",
    ]) == 0
    out = capsys.readouterr().out
    assert "result: [3]" in out
    assert "observability summary" in out
    assert "coproc[0]" in out  # the receiving node's co-processor showed up
    _trace_is_valid_chrome(str(trace))


def test_query_jsonl_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    metrics = tmp_path / "metrics.txt"
    assert main([
        "query", QUERY, "--trace", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    lines = [json.loads(line) for line in open(trace, encoding="utf-8")]
    assert lines[0] == {"section": "query"}
    kinds = {line.get("kind") for line in lines[1:]}
    assert {"span_begin", "span_end"} <= kinds
    assert "observability summary" in metrics.read_text(encoding="utf-8")


def test_query_metrics_only_skips_tracing(tmp_path, capsys):
    assert main(["query", QUERY, "--metrics-out", "-"]) == 0
    out = capsys.readouterr().out
    assert "observability summary" in out
    assert "sim.events_processed" in out


def test_fig8_trace_carries_flow_arrows(tmp_path, capsys):
    """--trace enables flow tracing: hop slices + s/t/f arrow events."""
    trace = tmp_path / "fig8_flows.json"
    assert main([
        "fig8", "--quick", "--repeats", "1", "--trace", str(trace),
    ]) == 0
    capsys.readouterr()
    document = _trace_is_valid_chrome(str(trace))
    phases = {event["ph"] for event in document["traceEvents"]}
    assert {"s", "f"} <= phases  # causal arrows from birth to delivery
    flow_threads = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "thread_name"
        and str(event["args"].get("name", "")).startswith("flow:")
    }
    assert flow_threads, "each stream edge gets its own flow thread"


def test_fig8_bottlenecks_to_stdout(capsys):
    assert main([
        "fig8", "--quick", "--repeats", "1", "--bottlenecks", "-",
    ]) == 0
    out = capsys.readouterr().out
    assert "critical-path profile" in out
    assert "coproc[" in out


def test_fig6_bottlenecks_report_is_the_same_fanned_out(capsys):
    """A flows-level observation no longer forces in-process runs: the
    report profiled from the workers' shipped records is the serial one."""
    reports = []
    for jobs in ("1", "2"):
        assert main([
            "fig6", "--quick", "--repeats", "1", "--jobs", jobs,
            "--bottlenecks", "-",
        ]) == 0
        reports.append(capsys.readouterr().out)
    assert "critical-path profile" in reports[0]
    assert reports[0] == reports[1]


def test_metrics_out_keeps_the_live_registry_under_jobs(capsys):
    """--metrics-out reads the live hub, so its runs stay in-process and the
    summary (with or without --bottlenecks) is not an empty rebuilt one."""
    outputs = []
    for flags in (["--metrics-out", "-"], ["--metrics-out", "-", "--bottlenecks", "-"]):
        for jobs in ("1", "2"):
            assert main(
                ["fig6", "--quick", "--repeats", "1", "--jobs", jobs] + flags
            ) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
    assert "coproc[0]" in outputs[0] and "coproc[0]" in outputs[2]
    assert "critical-path profile" in outputs[2]


def test_fig8_bottlenecks_to_json(tmp_path, capsys):
    report = tmp_path / "bottlenecks.json"
    assert main([
        "fig8", "--quick", "--repeats", "1", "--bottlenecks", str(report),
    ]) == 0
    capsys.readouterr()
    payload = json.load(open(report, encoding="utf-8"))
    assert payload["flows"] > 0
    assert payload["resources"], "ranked resource list must not be empty"
    assert {"resource", "service_s", "queue_wait_s"} <= set(payload["resources"][0])


def test_ablations_accept_observability_flags(tmp_path, capsys):
    trace = tmp_path / "ablations.json"
    metrics = tmp_path / "ablations_metrics.txt"
    report = tmp_path / "ablations_bn.json"
    assert main([
        "ablations", "--quick", "--repeats", "1",
        "--trace", str(trace), "--metrics-out", str(metrics),
        "--bottlenecks", str(report),
    ]) == 0
    capsys.readouterr()
    _trace_is_valid_chrome(str(trace))
    assert "observability summary" in metrics.read_text(encoding="utf-8")
    assert json.load(open(report, encoding="utf-8"))["flows"] > 0


def test_scaling_accept_observability_flags(tmp_path, capsys):
    metrics = tmp_path / "scaling_metrics.txt"
    report = tmp_path / "scaling_bn.txt"
    assert main([
        "scaling", "--quick", "--repeats", "1",
        "--metrics-out", str(metrics), "--bottlenecks", str(report),
    ]) == 0
    capsys.readouterr()
    assert "observability summary" in metrics.read_text(encoding="utf-8")
    assert "critical-path profile" in report.read_text(encoding="utf-8")


def test_fig8_run_exports_valid_trace(tmp_path, capsys):
    """Acceptance: a traced Figure 8 run produces a loadable Chrome trace."""
    trace = tmp_path / "fig8.json"
    assert main([
        "fig8", "--quick", "--repeats", "1", "--trace", str(trace),
    ]) == 0
    document = _trace_is_valid_chrome(str(trace))
    names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M" and event["name"] == "process_name"
    }
    # one trace process per (point, repeat) with a descriptive label
    assert any(name.startswith("fig8 B=1000 seq/single") for name in names)
    assert any(name.startswith("fig8 B=200000 bal/double") for name in names)
    assert "balanced advantage" in capsys.readouterr().out
