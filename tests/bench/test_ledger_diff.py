"""``repro bench diff``: two host-time ledger documents under BENCHMARK.json."""

import copy
import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.bench.baseline import diff_ledger, ledger_verdict

SPEC = str(Path(__file__).resolve().parents[2] / "BENCHMARK.json")


def result(**metrics):
    values = {
        "setup_s": 0.4, "queries_per_s": 100.0, "slowest_query_ms": 10.0,
        "peak_rss_mb": 36.0, "sim_mbps": 146.5,
    }
    values.update(metrics)
    return {
        "workload": "p2p_torus", "attempted": 500, "failed": 0, "errors": [],
        "problems": [], "metrics": values,
        "exact": {"sim.events": 40540, "model.sim_s": 5.305},
        "info": {},
    }


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


class TestVerdict:
    @pytest.mark.parametrize("old, new, higher, verdict", [
        (100.0, 130.0, True, "better"),
        (100.0, 120.0, True, "flat"),
        (100.0, 70.0, True, "worse"),
        (10.0, 13.0, False, "worse"),
        (10.0, 7.0, False, "better"),
        (0.0, 0.0, False, "flat"),
        (0.0, 1.0, False, "worse"),
    ])
    def test_direction_and_bound(self, old, new, higher, verdict):
        assert ledger_verdict(old, new, higher, 0.25) == verdict


class TestDiff:
    def test_identical_documents_have_no_problem(self, tmp_path):
        old = write(tmp_path, "old.json", {"p2p_torus": result()})
        lines, problems = diff_ledger(old, old, SPEC)
        assert problems == 0
        # Every end_to_end metric: flat, or unresolved where it spreads past its bound.
        assert sum(" flat (" in line or " unresolved (" in line for line in lines) == 5
        assert sum(line.endswith("equal") for line in lines) == 2  # every exact key

    def test_a_trajectory_point_reads_as_its_end_to_end_half(self, tmp_path):
        old = write(tmp_path, "old.json", {"p2p_torus": result()})
        point = write(tmp_path, "pr.json", {
            "point": "prN", "end_to_end": {"p2p_torus": result(queries_per_s=140.0)},
            "per_layer": {},
        })
        lines, problems = diff_ledger(old, point, SPEC)
        (row,) = [line for line in lines if "queries_per_s" in line]
        assert "x1.400" in row and "better" in row and problems == 0

    @pytest.mark.parametrize("change", [
        lambda doc: doc["metrics"].update(queries_per_s=70.0),       # worse past 25 %
        lambda doc: doc["metrics"].update(peak_rss_mb=38.0),         # worse past 5 %
        lambda doc: doc.update(failed=1),                             # more ops fail
        lambda doc: doc["exact"].update({"sim.events": 40541}),      # physics moved
    ])
    def test_each_problem_counts_and_fails_the_command(self, tmp_path, change, capsys,
                                                          monkeypatch):
        new = result()
        change(new)
        old = write(tmp_path, "old.json", {"p2p_torus": result()})
        path = write(tmp_path, "new.json", {"p2p_torus": new})
        assert diff_ledger(old, path, SPEC)[1] == 1
        monkeypatch.chdir(Path(SPEC).parent)  # the command runs from the root
        assert main(["bench", "diff", old, path]) == 1
        assert "=> 1 problem(s)" in capsys.readouterr().out

    def test_a_metric_that_spreads_past_its_bound_is_unresolved(self, tmp_path):
        # BASELINE.json records p2p_torus setup_s spreading 39 % run to run
        # against a 25 % bound, merge_torus setup_s 10 %.
        slow = {"p2p_torus": result(setup_s=0.8), "merge_torus": result(setup_s=0.8)}
        old = write(tmp_path, "old.json", {"p2p_torus": result(), "merge_torus": result()})
        new = write(tmp_path, "new.json", slow)
        lines, problems = diff_ledger(old, new, SPEC)
        rows = {line.split()[0]: line for line in lines if "setup_s" in line}
        assert "unresolved (recorded spread 39% > bound 25%)" in rows["p2p_torus"]
        assert "worse" in rows["merge_torus"] and problems == 1

    def test_a_missing_workload_is_a_problem(self, tmp_path):
        both = {"p2p_torus": result(), "merge_torus": copy.deepcopy(result())}
        old = write(tmp_path, "old.json", both)
        new = write(tmp_path, "new.json", {"p2p_torus": result()})
        lines, problems = diff_ledger(old, new, SPEC)
        assert problems == 1 and any("merge_torus" in line and "MISSING" in line for line in lines)

    def test_the_committed_points_diff_under_the_declared_spec(self, capsys):
        trajectory = Path(SPEC).parent / "benchmarks" / "trajectory"
        old, new = str(trajectory / "pr26.json"), str(trajectory / "pr27.json")
        lines, _problems = diff_ledger(old, new, SPEC)
        # Seven workloads x (five metrics + failed share + two exact keys).
        assert len(lines) == 1 + 7 * 8 + 1
        assert not any(line.endswith("DIFFERS") for line in lines)
