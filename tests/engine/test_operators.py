"""Unit tests for the physical operators (sources, aggregates, merge)."""

import re
from pathlib import Path

import pytest

from repro.engine.objects import SyntheticArray
from repro.engine.operators import (
    Avg,
    Constant,
    Count,
    GenerateArrays,
    Iota,
    MaxAgg,
    Merge,
    MinAgg,
    Relay,
    Sum,
    operator_class,
)
from repro.engine.operators.registry import _BUILTINS
from repro.engine.sqep import INPUT
from repro.scsql.plan import compile_plan
from repro.util.errors import QueryExecutionError
from tests.conftest import run_operator

#: One expression per SCSQL builtin that compiles to a plan operator; each
#: runs in ``q`` of ``select extract(q) from sp q, sp a where q=sp(<expr>,
#: 'bg') and a=sp(iota(1, 3), 'bg')``.  ``streamof`` of a literal compiles
#: to ``constant``.
SCSQL_BUILTINS = {
    "gen_array": "gen_array(100, 2)",
    "iota": "iota(1, 3)",
    "receiver": "receiver('signals')",
    "grep": "grep('x', 'corpus-0.txt')",
    "count": "count(extract(a))",
    "sum": "sum(extract(a))",
    "avg": "avg(extract(a))",
    "maxagg": "maxagg(extract(a))",
    "minagg": "minagg(extract(a))",
    "streamof": "streamof(7)",
    "relay": "relay(extract(a))",
    "merge": "merge({a})",
    "first": "first(extract(a), 2)",
    "above": "above(extract(a), 1)",
    "below": "below(extract(a), 2)",
    "sample": "sample(extract(a), 2)",
    "winagg": "winagg(extract(a), 'sum', 2)",
    "groupwin": "groupwin(extract(a), 'sum', 2, 0, 1)",
    "odd": "odd(gen_array(100, 2))",
    "even": "even(gen_array(100, 2))",
    "fft": "fft(gen_array(100, 2))",
    "radixcombine": "radixcombine(gen_array(100, 2))",
}


class TestRegistry:
    def test_known_names_resolve(self):
        assert operator_class("count") is Count
        assert operator_class("gen_array") is GenerateArrays

    def test_unknown_name_rejected(self):
        with pytest.raises(QueryExecutionError):
            operator_class("teleport")

    def test_registry_covers_the_paper_functions(self):
        names = {name for name in _BUILTINS if operator_class(name).name == name}
        assert {"gen_array", "iota", "count", "sum", "merge", "grep",
                "fft", "odd", "even", "radixcombine", "receiver"} <= names

    def test_only_first_stops_early(self):
        """A stop condition ends its output before its inputs end, so its
        RP supervises the subscriptions left live; no other builtin does,
        and an RP without one registers no supervision."""
        early = {name for name in _BUILTINS if operator_class(name).stops_early}
        assert early == {"first"}

    def test_every_operator_is_reachable_from_scsql(self):
        """The compiler emits every operator the package registers, and the
        language reference lists no builtin the test does not compile."""
        compiled = set()
        for expression in SCSQL_BUILTINS.values():
            plan = compile_plan(
                f"select extract(q) from sp q, sp a where q=sp({expression}, 'bg') "
                "and a=sp(iota(1, 3), 'bg');"
            )
            for sp in plan.graph.sps.values():
                compiled.update(node.name for node in sp.plan.walk())
        assert compiled - {INPUT} == set(_BUILTINS)

        reference = (Path(__file__).parents[2] / "docs" / "scsql.md").read_text()
        tables = re.search(r"## Sources\n(.*?)\n## User-defined", reference, re.S).group(1)
        documented = {
            name
            for row in tables.splitlines() if row.startswith("| `")
            for name in re.findall(r"`(\w+)\(", row.split("|")[1])
        }
        assert documented and documented <= set(SCSQL_BUILTINS)


class TestSources:
    def test_gen_array_emits_sized_sequence(self, env):
        out = run_operator(env, GenerateArrays, [], nbytes=500, count=4)
        assert [a.sequence for a in out] == [0, 1, 2, 3]
        assert all(isinstance(a, SyntheticArray) and a.nbytes == 500 for a in out)

    def test_gen_array_validation(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(env, GenerateArrays, [], nbytes=0, count=4)

    def test_iota_inclusive_range(self, env):
        assert run_operator(env, Iota, [], low=3, high=7) == [3, 4, 5, 6, 7]

    def test_iota_empty_range(self, env):
        assert run_operator(env, Iota, [], low=5, high=4) == []

    def test_constant(self, env):
        assert run_operator(env, Constant, [], value="x") == ["x"]


class TestAggregates:
    def test_count(self, env):
        assert run_operator(env, Count, [["a", "b", "c"]]) == [3]

    def test_count_empty_stream(self, env):
        assert run_operator(env, Count, [[]]) == [0]

    def test_sum(self, env):
        assert run_operator(env, Sum, [[1, 2, 3.5]]) == [6.5]

    def test_sum_rejects_non_numeric(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(env, Sum, [["oops"]])

    def test_avg(self, env):
        assert run_operator(env, Avg, [[2, 4, 6]]) == [4.0]

    def test_avg_empty_is_none(self, env):
        assert run_operator(env, Avg, [[]]) == [None]

    def test_max_min(self, env):
        assert run_operator(env, MaxAgg, [[3, 9, 1]]) == [9]
        assert run_operator(env, MinAgg, [[3, 9, 1]]) == [1]

    def test_arity_enforced(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(env, Count, [[1], [2]])


class TestMergeAndRelay:
    def test_merge_delivers_everything(self, env):
        out = run_operator(env, Merge, [[1, 2, 3], [10, 20], [100]])
        assert sorted(out) == [1, 2, 3, 10, 20, 100]

    def test_merge_terminates_on_last_input(self, env):
        out = run_operator(env, Merge, [[], [], [42]])
        assert out == [42]

    def test_merge_needs_an_input(self, env):
        with pytest.raises(QueryExecutionError):
            run_operator(env, Merge, [])

    def test_relay_is_identity(self, env):
        assert run_operator(env, Relay, [[1, "a", None]]) == [1, "a", None]
