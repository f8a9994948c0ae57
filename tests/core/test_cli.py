"""Tests for the command-line interface."""

import pytest

from repro.__main__ import build_parser, main
from repro.core.experiments import FIGURES
from repro.core.experiments.cli import sweep_kwargs


def _subparsers():
    """Every subcommand ``build_parser()`` knows, name -> its parser."""
    (action,) = build_parser()._subparsers._group_actions
    return action.choices


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for command in ("fig6", "fig8", "fig15", "ablations", "scaling", "all", "query"):
            args = parser.parse_args(
                [command, "select extract(a) from sp a where a=sp(iota(1,2), 'bg');"]
                if command == "query"
                else [command]
            )
            assert args.command == command

    def test_repeats_and_quick_flags(self):
        args = build_parser().parse_args(["fig6", "--repeats", "7", "--quick"])
        assert args.repeats == 7
        assert args.quick

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDispatcher:
    """`__main__` only dispatches: every subcommand registers from the
    module next to the code it drives."""

    def test_help_order(self):
        assert list(_subparsers()) == [
            "fig6", "fig8", "fig15", "ablations", "scaling", "all", "bench",
            "adaptive", "top", "query", "explain", "multiquery", "analyze",
        ]

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_handler_lives_outside_main(self, command):
        func = _subparsers()[command].get_default("func")
        assert func.__module__ != "repro.__main__"
        assert func.__module__.endswith(".cli")

    @pytest.mark.parametrize("command", list(_subparsers()))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert f"python -m repro {command}" in capsys.readouterr().out

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_a_full_run_is_the_experiments_defaults(self, name):
        """No sweep argument on a full run: the `DEFAULT_*` of the
        experiment module are the only definition of a full sweep."""
        full = build_parser().parse_args([name])
        quick = build_parser().parse_args([name, "--quick"])
        for sweep in FIGURES[name]:
            assert set(sweep_kwargs(sweep, full)) == {"repeats", "observe", "jobs"}
            assert set(sweep_kwargs(sweep, quick)) > {"repeats", "observe", "jobs"}


class TestExecution:
    def test_query_subcommand_runs(self, capsys):
        code = main(
            [
                "query",
                "select extract(b) from sp a, sp b "
                "where b=sp(sum(extract(a)), 'bg') and a=sp(iota(1,4), 'bg');",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: [10]" in out
        assert "placements:" in out

    def test_query_with_stop(self, capsys):
        code = main(
            [
                "query",
                "--stop-after",
                "0.02",
                "select extract(a) from sp a where a=sp(gen_array(10000,-1), 'bg');",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "(stopped)" in out

    def test_function_definition_via_cli(self, capsys):
        code = main(
            [
                "query",
                "create function f() -> stream as select extract(a) from sp a "
                "where a=sp(iota(1,2), 'bg');",
            ]
        )
        assert code == 0
        assert "function defined" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, line", [
        (["query", "select bogus("],
         "query: expected an expression, found 'end' at line 1, column 14"),
        (["explain", "select x from"],
         "explain: expected 'ident', found 'end' at line 1, column 14"),
        (["query", "select extract(a) from sp a where a=sp(iota(1,2), 'bg', 999);"],
         "query: stream process 'a@1' explicitly selects node 999 of cluster "
         "'bg', which does not exist (cluster has nodes 0..31)"),
    ], ids=["query-parse", "explain-parse", "query-placement"])
    def test_rejected_text_ends_in_one_diagnostic_line(self, argv, line, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_quick_fig6(self, capsys):
        code = main(["fig6", "--quick", "--repeats", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 6" in out
        assert "optimum: single=1000" in out
