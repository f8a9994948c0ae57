"""Smoke test of the host-time ledger (``pytest benchmarks/ledger``).

Inherits the ``slow`` marker from ``benchmarks/conftest.py``; not tier-1.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def ledger(*args):
    """Run run.py; returns (exit code, final JSON object, wall seconds)."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - started
    assert done.stdout, done.stderr
    return done.returncode, json.loads(done.stdout.splitlines()[-1]), wall


@pytest.mark.parametrize("trace, declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_declared_metric(trace, declared):
    code, final, wall = ledger("--smoke", "--trace", trace)
    assert code == 0 and final["correct"] and final["failed"] == 0
    assert wall < 30.0
    names = {entry["name"] for entry in SPEC[declared]}
    assert sorted(final["workloads"]) == sorted(WORKLOADS)
    for workload, result in final["workloads"].items():
        assert set(result["metrics"]) == names, workload
        assert all(metric["unit"] for metric in result["metrics"].values())
        assert result["attempted"] >= 1


def test_wrong_reference_fails_the_run():
    code, final, _ = ledger(
        "--smoke", "--workload", "inbound_eth", "--corrupt-reference"
    )
    assert code != 0
    assert not final["correct"]
    assert 0 < final["failed"] < final["attempted"]
