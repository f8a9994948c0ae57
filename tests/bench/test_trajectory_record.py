"""The paired recorder's arithmetic, on synthetic ledger documents."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "record", ROOT / "benchmarks" / "trajectory" / "record.py")
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def document(setup_s, queries_per_s):
    metrics = {"setup_s": setup_s, "queries_per_s": queries_per_s, "slowest_query_ms": 1.0,
               "peak_rss_mb": 20.0, "sim_mbps": 4.7}
    return {"lifecycle_tiny": {"metrics": metrics}}


def test_pair_ratios_median_and_wins_follow_the_declared_direction():
    parents = [document(1.0, 100.0), document(1.0, 100.0), document(1.0, 100.0)]
    changes = [document(0.8, 110.0), document(1.0, 90.0), document(0.9, 100.0)]
    summary = record.compare(parents, changes, DECLARED)["lifecycle_tiny"]
    setup = summary["setup_s"]
    assert setup["ratios"] == pytest.approx([0.8, 1.0, 0.9])
    assert setup["median_ratio"] == pytest.approx(0.9)
    assert (setup["won"], setup["pairs"]) == (2, 3)  # the tie is won by neither
    speed = summary["queries_per_s"]
    assert speed["ratios"] == pytest.approx([1.1, 0.9, 1.0])
    assert speed["won"] == 1  # higher is better here
    assert summary["sim_mbps"]["won"] == 0 and summary["sim_mbps"]["median_ratio"] == 1.0


def test_each_side_keeps_its_median_and_quartiles():
    parents = [document(value, 100.0) for value in (4.0, 1.0, 3.0, 2.0, 5.0)]
    changes = [document(1.0, 100.0)] * 5
    setup = record.compare(parents, changes, DECLARED)["lifecycle_tiny"]["setup_s"]
    assert setup["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert setup["change"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert record.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}
