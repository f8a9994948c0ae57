"""Every measured figure is one `FIGURES` row: table-driven checks.

The goldens under ``golden_figures/`` are the stdout of the parent commit's
``python -m repro <figure> --quick --repeats 1`` (the per-figure result
classes that printed them are gone); the simulator is deterministic per
seed, so the one renderer must reproduce them byte for byte.
"""

import ast
import pickle
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.bench.baseline import load_bench
from repro.bench.benchmark import bench_points
from repro.core.experiments import FIGURES
from repro.core.experiments.claims import CLAIMS
from repro.core.measurement import key_label, run_sweep
from tests.core.test_measurement import walk_figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SWEEPS = [sweep for sweeps in FIGURES.values() for sweep in sweeps]


@pytest.mark.parametrize("figure", list(FIGURES))
def test_table_and_headline_are_the_parents_stdout(figure, quick):
    printed = []
    for sweep in FIGURES[figure]:
        result = quick(sweep)
        printed.append(result.format_table())
        if sweep.headline is not None:
            printed[-1] += "\n" + sweep.headline(result)
    golden = (HERE / "golden_figures" / f"{figure}.txt").read_text()
    assert "\n\n".join(printed) + "\n" == golden


def _sweep_id(sweep):
    """The lowercase head of the sweep's point label: "fig6", "ablation selector"."""
    return re.match(r"[a-z0-9 ]+", sweep.point)[0].strip()


@pytest.mark.parametrize("sweep", SWEEPS, ids=_sweep_id)
class TestSweepResult:
    def test_accessors_agree_with_a_scan_of_the_points(self, sweep, quick):
        result = quick(sweep)
        assert list(result.points) == [spec.key for spec in sweep.specs(**sweep.quick)]
        for key, point in result.points.items():
            assert result.at(*key) is point
            # fix every axis but the row axis: the curve through this point
            fixed = {a: v for a, v in key._asdict().items() if a != sweep.row}
            curve = sorted(
                (k, p) for k, p in result.points.items()
                if all(getattr(k, a) == v for a, v in fixed.items())
            )
            assert result.curve(**fixed) == curve
            assert result.best(**fixed)[1].mean_mbps == max(
                p.mean_mbps for _k, p in curve
            )
        assert result.curve() == sorted(result.points.items())
        with pytest.raises(KeyError):
            result.at(*(None for _axis in key))

    def test_rows_are_the_key_fields_plus_the_statistics(self, sweep, quick):
        result = quick(sweep)
        rows = result.rows()
        assert len(rows) == len(result.points)
        (key_type,) = {type(key) for key in result.points}
        for row in rows:
            assert list(row) == [*key_type._fields, "mbps_mean", "mbps_std", "repeats"]
            assert row["repeats"] == 1
        assert [tuple(row[a] for a in key_type._fields) for row in rows] == sorted(
            result.points
        )

    def test_keys_are_named_tuples_that_label_and_pickle_as_plain_ones(self, sweep):
        pivots = sweep.table is None
        assert bool(sweep.columns) == bool(sweep.column) == pivots
        for spec in sweep.specs():
            key = spec.key
            assert sweep.row in key._fields
            if pivots:
                assert {sweep.row, *sweep.columns} == set(key._fields)
                sweep.column.format(k=key)  # resolves
            # the trap: str(key) would read "Fig6Key(buffer_bytes=200, ...)"
            assert key_label(key) == str(tuple(key)) != str(key)
            assert type(key).__qualname__ == type(key).__name__  # module level
            clone = pickle.loads(pickle.dumps(key))
            assert type(clone) is type(key) and clone == key == tuple(key)
            sweep.point.format(k=key)  # resolves


def test_key_label_leaves_a_string_key_alone():
    assert key_label("point") == "point"
    assert key_label("fig6[B=200,double]") == "fig6[B=200,double]"


@pytest.mark.parametrize("figure", ["scaling", "multiquery"])
def test_row_fans_out_bit_identically(figure, quick):
    """Across environments (scaling: 2 partitions x 2 uplinks) and across
    the sessions of concurrent queries, which cross to the workers whole."""
    (sweep,) = FIGURES[figure]
    if figure == "scaling":
        assert len({spec.env_config for spec in sweep.specs(**sweep.quick)}) == 4
    serial = quick(sweep)
    parallel = run_sweep(sweep, **sweep.quick, repeats=1, jobs=2)
    assert list(parallel.points) == list(serial.points)
    for key, point in serial.points.items():
        assert parallel.at(*key).mbps.samples == point.mbps.samples
        (theirs,), (ours,) = parallel.at(*key).reports, point.reports
        assert [o.mbps for o in getattr(theirs, "outcomes", ())] == [
            o.mbps for o in getattr(ours, "outcomes", ())
        ]
    assert parallel.format_table() == serial.format_table()


def test_an_observed_session_point_has_one_hub_per_repeat_with_every_label():
    (multiquery,) = FIGURES["multiquery"]
    result = run_sweep(multiquery, points=((2, 1, "distinct", "shared"),), array_bytes=300_000,
                       array_count=2, repeats=2, observe="flows")
    (point,) = result.points.values()
    assert len(point.observations) == 2 and point.observations[0] is not point.observations[1]
    for hub, session in zip(point.observations, point.reports):
        labels = {record.stream_id.split("/", 1)[0] for record in hub.flows.completed}
        assert labels == {"qA", "qB"} == {outcome.label for outcome in session.outcomes}


def test_gate_points_are_recorded_in_the_baseline():
    recorded = {name.rsplit("/", 1)[0] for name in load_bench(str(ROOT / "BENCH_baseline.json"))}
    keys = [point.key for point in bench_points()]
    assert len(keys) == len(set(keys)) == 8
    assert set(keys) <= recorded


def test_analyze_sweeps_walks_the_table():
    """Every row's specs verify, each labelled by its row's point format."""
    reports = walk_figures()
    labels = [report.label for report in reports]
    assert len(labels) == 166
    # a scaling point is labelled by its query, io-node count and uplink
    assert "scaling Q5 io=4 uplink=1G" in labels
    assert "fig6 B=200 double" in labels and "fig8 B=1000 seq/double" in labels
    assert "multiquery 2x2 distinct/shared" in labels  # a session point, verified as one
    assert [r.format_text() for r in reports if not r.ok()] == []


def test_claims_are_tested_once_read_every_sweep_and_are_the_documented_rows():
    tested = defaultdict(list)  # claim name -> the tier-1 tests that call holds(name)
    for path in sorted((ROOT / "tests").rglob("test_*.py")):
        for test in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(test, ast.FunctionDef) and test.name.startswith("test_"):
                for call in ast.walk(test):
                    if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "holds":
                        tested[call.args[0].value].append(f"{path.name}::{test.name}")
    assert {name: len(tests) for name, tests in tested.items()} == {
        claim.name: 1 for claim in CLAIMS if claim.holds is not None
    }, dict(tested)
    assert {sweep.point for claim in CLAIMS for sweep in claim.sweeps} == {
        sweep.point for sweep in SWEEPS
    }
    documented, table = [], False  # ("Paper claim", "Holds?") cells of EXPERIMENTS.md
    for line in (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8").splitlines():
        table = line.startswith("| Paper claim") or (table and line.startswith("|"))
        if table and not line.startswith(("| Paper claim", "|---")):
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            documented.append((cells[0], cells[-1]))
    assert documented == [(claim.words, claim.verdict) for claim in CLAIMS]
