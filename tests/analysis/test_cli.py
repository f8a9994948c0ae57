"""``python -m repro analyze``: exit codes, output modes, statement sources,
and the examples' declared queries."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.__main__ import build_parser
from repro.analysis.cli import split_statements

CLEAN_QUERY = (
    "select count(extract(a)) from sp a where a=sp(gen_array(10,5), 'bg', 1)"
)
OVERSUBSCRIBED_QUERY = (
    "select count(merge({a,b})) from sp a, sp b "
    "where a=sp(gen_array(10,5), 'bg', 1) and b=sp(gen_array(10,5), 'bg', 1)"
)
EXHAUSTED_QUERY = (
    "select count(merge(a)) from bag of sp a, integer n "
    "where a=spv((select gen_array(10,5) from integer i "
    "where i in iota(1,n)), 'bg', inPset(0)) and n=9"
)

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def analyze(*argv):
    args = build_parser().parse_args(["analyze", *argv])
    return args.func(args)


class TestExitCodes:
    def test_clean_query_exits_zero(self, capsys):
        assert analyze(CLEAN_QUERY) == 0
        assert "0 failing" in capsys.readouterr().out

    def test_oversubscription_exits_nonzero_with_code(self, capsys):
        assert analyze(OVERSUBSCRIBED_QUERY) == 1
        assert "SCSQ103" in capsys.readouterr().out

    def test_exhaustion_exits_nonzero_with_distinct_code(self, capsys):
        assert analyze(EXHAUSTED_QUERY) == 1
        assert "SCSQ104" in capsys.readouterr().out

    def test_compile_failure_is_reported_not_raised(self, capsys):
        assert analyze("select count(from from") == 1
        assert "SCSQ000" in capsys.readouterr().out

    def test_no_input_exits_two(self, capsys):
        assert analyze() == 2

    def test_strict_promotes_warnings_to_failure(self, capsys):
        cross_pset = (
            "select extract(b) from sp a, sp b "
            "where b=sp(count(extract(a)), 'bg', 0) "
            "and a=sp(gen_array(10,5), 'bg', 8)"
        )
        assert analyze(cross_pset) == 0
        assert analyze("--strict", cross_pset) == 1


class TestStatementSources:
    def test_multiple_statements_per_argument(self, capsys):
        assert analyze(f"{CLEAN_QUERY}; {OVERSUBSCRIBED_QUERY};") == 1
        out = capsys.readouterr().out
        assert "2 plan(s) verified" in out
        assert "1 failing" in out

    def test_file_source(self, tmp_path, capsys):
        script = tmp_path / "queries.scsql"
        script.write_text(f"{CLEAN_QUERY};\n{CLEAN_QUERY};\n")
        assert analyze("--file", str(script)) == 0
        assert "2 plan(s) verified" in capsys.readouterr().out

    def test_create_function_registers_for_later_statements(self, capsys):
        define = (
            "create function pair() -> stream "
            "as select count(extract(a)) from sp a "
            "where a=sp(gen_array(10,5), 'bg')"
        )
        assert analyze(f"{define}; select pair() from integer z where z=0;") == 0
        assert "1 plan(s) verified" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "example",
        sorted(p.name for p in (REPO_ROOT / "examples").glob("*.py")),
    )
    def test_every_example_verifies_clean(self, example):
        """An example's ``scsql_queries()`` hook lists its statements in
        session order, as ``(label, statement)`` pairs."""
        path = REPO_ROOT / "examples" / example
        spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert analyze(*(text for _label, text in module.scsql_queries())) == 0


class TestJSONOutput:
    def test_json_payload_shape(self, capsys):
        assert analyze("--json", CLEAN_QUERY, OVERSUBSCRIBED_QUERY) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert len(payload["reports"]) == 2
        clean, failing = payload["reports"]
        assert clean["diagnostics"] == []
        assert failing["diagnostics"][0]["code"] == "SCSQ103"


class TestSplitStatements:
    def test_respects_quoted_semicolons(self):
        statements = split_statements("select grep('a;b', f) from x; select 1;")
        assert len(statements) == 2
        assert "a;b" in statements[0]

    def test_drops_empty_fragments(self):
        assert split_statements(";;  ;\n") == []
