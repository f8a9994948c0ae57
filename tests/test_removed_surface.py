"""Removed surface stays removed: the repo's rules about itself, one table.

Each row of :data:`ROWS` pins one thing a change deleted or narrowed -- a
name, a module, a model parameter, a command-line option, a shape of the
code -- so that it cannot come back unnoticed.  A row has five fields:

* ``check``: what must hold (the check kinds are the classes below);
* ``scope``: the paths it reads, relative to the repository root;
* ``change``: the CHANGES.md entry that removed the thing, by its headline;
* ``reason``: one line on why it stays gone;
* ``doc``: ``docs/<file>.md#<heading>``, where its replacement is explained.

Text checks read ``*.py`` files, plus ``*.md`` under ``docs``.  They never
read ``__pycache__``, and they skip this module, which names everything it
forbids.  A later removal adds a row here; docs/static-analysis.md,
"Removed surface", says how.  Every row is checked twice: it holds on the
repository, and it fires on a temporary tree seeded with one occurrence.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, NamedTuple, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SELF = Path(__file__).resolve().relative_to(ROOT).as_posix()


def _rel(root: Path, path: Path) -> str:
    return path.relative_to(root).as_posix()


def _files(root: Path, scope: Tuple[str, ...]) -> Iterator[Path]:
    """The text files a row reads: ``*.py`` (and ``*.md`` under ``docs``)
    below each scope directory, or the scope file itself."""
    for entry in scope:
        path = root / entry
        suffixes = (".py", ".md") if entry == "docs" else (".py",)
        if path.is_file():
            found = [path]
        elif path.is_dir():
            found = sorted(p for p in path.rglob("*") if p.suffix in suffixes)
        else:
            found = []
        for path in found:
            if "__pycache__" not in path.relative_to(root).parts and _rel(root, path) != SELF:
                yield path


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _seed_file(root: Path, scope: Tuple[str, ...], lines: List[str]) -> str:
    """Append ``lines`` to the scope's first file (a new ``seeded.py`` or
    ``seeded.md`` when the scope's first entry is a directory)."""
    entry = scope[0]
    if not Path(entry).suffix:
        entry = f"{entry}/seeded.md" if entry == "docs" else f"{entry}/seeded.py"
    path = root / entry
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return entry


def _load(root: Path, relpath: str):
    """The module at ``relpath``: imported by name in this repository, or
    executed from the file in a seeded tree."""
    if root == ROOT:
        return importlib.import_module(".".join(Path(relpath).with_suffix("").parts[1:]))
    spec = importlib.util.spec_from_file_location(f"seeded_{abs(hash(root))}", root / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class Text:
    """``pattern`` matches at most ``most`` lines of the scope (by default
    none).  ``examples`` are lines it matches: the self-test seeds each."""

    pattern: str
    examples: Tuple[str, ...]
    most: int = 0

    def label(self, scope: Tuple[str, ...]) -> str:
        return self.examples[0]

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        regex = re.compile(self.pattern)
        found = [
            f"{_rel(root, path)}:{number}: {line.strip()}"
            for path in _files(root, scope)
            for number, line in enumerate(_text(path).splitlines(), 1)
            if regex.search(line)
        ]
        return found if len(found) > self.most else []

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        _seed_file(root, scope, [line for line in self.examples for _ in range(self.most + 1)])
        return list(self.examples)


def words(*names: str) -> Text:
    """``grep -w``: none of ``names`` occurs as a whole word."""
    return Text(r"\b(?:" + "|".join(names) + r")\b", names)


@dataclass(frozen=True)
class Only:
    """The scope's files that ``pattern`` matches are exactly ``files``
    (an allowed-file set); ``ignore`` lists files not read at all."""

    pattern: str
    example: str
    files: Tuple[str, ...]
    ignore: Tuple[str, ...] = ()

    def label(self, scope: Tuple[str, ...]) -> str:
        return f"{self.example} only in {', '.join(self.files)}"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        regex = re.compile(self.pattern)
        matched = {
            _rel(root, path)
            for path in _files(root, scope)
            if _rel(root, path) not in self.ignore and regex.search(_text(path))
        }
        return [f"{name}: matches" for name in sorted(matched - set(self.files))] + [
            f"{name}: no longer matches" for name in sorted(set(self.files) - matched)
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        for name in self.files:
            _seed_file(root, (name,), [self.example])
        return [_seed_file(root, scope, [self.example])]


@dataclass(frozen=True)
class Absent:
    """No path of the scope exists."""

    def label(self, scope: Tuple[str, ...]) -> str:
        return f"no {scope[0]}"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [entry for entry in scope if (root / entry).exists()]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [_seed_file(root, scope, ["pass"])]


@dataclass(frozen=True)
class Lines:
    """Every file of the scope has at most ``most`` lines."""

    most: int

    def label(self, scope: Tuple[str, ...]) -> str:
        return f"{scope[0]} within {self.most} lines"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [
            f"{_rel(root, path)}: {count} lines"
            for path in _files(root, scope)
            for count in [len(_text(path).splitlines())]
            if count > self.most
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [_seed_file(root, scope, ["pass"] * (self.most + 1))]


@dataclass(frozen=True)
class Ast:
    """No node of the scope's Python source satisfies ``predicate``;
    ``example`` is source that does."""

    predicate: Callable[[ast.AST], bool]
    example: str

    def label(self, scope: Tuple[str, ...]) -> str:
        return self.predicate.__name__

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [
            f"{_rel(root, path)}:{node.lineno}"
            for path in _files(root, scope)
            if path.suffix == ".py"
            for node in ast.walk(ast.parse(_text(path)))
            if self.predicate(node)
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [_seed_file(root, scope, [self.example])]


@dataclass(frozen=True)
class Holds:
    """``predicate`` holds of the module the scope names (an import
    predicate); ``example`` is a module of which it does not."""

    predicate: Callable[[object], bool]
    example: str

    def label(self, scope: Tuple[str, ...]) -> str:
        return self.predicate.__name__

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [] if self.predicate(_load(root, scope[0])) else [scope[0]]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [_seed_file(root, scope, [self.example])]


@dataclass(frozen=True)
class Options:
    """No option string of ``commands`` in the scope module's
    ``build_parser()`` contains one of ``fragments``."""

    commands: Tuple[str, ...]
    fragments: Tuple[str, ...]

    def label(self, scope: Tuple[str, ...]) -> str:
        return " ".join(self.fragments)

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        parser = _load(root, scope[0]).build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        return [
            f"{command} {option}"
            for command in self.commands
            for option in sorted(sub.choices[command]._option_string_actions)
            if any(fragment in option for fragment in self.fragments)
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        _seed_file(root, scope, [
            "import argparse",
            "def build_parser():",
            "    parser = argparse.ArgumentParser()",
            "    sub = parser.add_subparsers()",
            f"    for command in {self.commands!r}:",
            "        command_parser = sub.add_parser(command)",
            f"        for option in {self.fragments!r}:",
            "            command_parser.add_argument(option)",
            "    return parser",
        ])
        return [f"{c} {f}" for c in self.commands for f in self.fragments]


_QUALIFIED = re.compile(r"`(repro(?:\.\w+)+)")


def _resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, then look up the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                target = getattr(target, attribute)
        except AttributeError:
            return False
        return True
    return False


@dataclass(frozen=True)
class Resolves:
    """Every backticked, fully qualified ``repro.*`` reference in the
    scope's Markdown names something that exists."""

    def label(self, scope: Tuple[str, ...]) -> str:
        return "qualified references resolve"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [
            f"{_rel(root, path)}: {name}"
            for path in _files(root, scope)
            if path.suffix == ".md"
            for name in sorted(set(_QUALIFIED.findall(_text(path))))
            if not _resolves(name)
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        _seed_file(root, scope, ["See `repro.net.message.ControlMessage`."])
        return ["repro.net.message.ControlMessage"]


def takes_verify(node: ast.AST) -> bool:
    """A function with a ``verify`` parameter."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    args = node.args
    return any(arg.arg == "verify" for arg in args.posonlyargs + args.args + args.kwonlyargs)


def io_node_has_nic_rate(node: ast.AST) -> bool:
    """``IONodeParams`` declaring a ``nic_rate`` field."""
    return (
        isinstance(node, ast.ClassDef)
        and node.name == "IONodeParams"
        and any(
            isinstance(statement, ast.AnnAssign)
            and getattr(statement.target, "id", None) == "nic_rate"
            for statement in node.body
        )
    )


def any_of_collects(node: ast.AST) -> bool:
    """``AnyOf`` defining a ``_collect`` method."""
    return (
        isinstance(node, ast.ClassDef)
        and node.name == "AnyOf"
        and any(
            isinstance(statement, ast.FunctionDef) and statement.name == "_collect"
            for statement in node.body
        )
    )


def chaos_is_a_calendar_queue(module) -> bool:
    """``ShuffleScheduler`` is a batched ``CalendarQueue``."""
    return issubclass(module.ShuffleScheduler, module.CalendarQueue) and bool(
        module.ShuffleScheduler.batched
    )


class Row(NamedTuple):
    check: object
    scope: Tuple[str, ...]
    change: str
    reason: str
    doc: str


PACKAGE = ("src/repro",)
MAIN = ("src/repro/__main__.py",)
FIGURE_MODULES = tuple(
    f"src/repro/core/experiments/{name}.py"
    for name in ("fig6", "fig8", "fig15", "scaling", "ablations")
)
DOCS = ("docs", "README.md", "DESIGN.md", "EXPERIMENTS.md")

ROWS: List[Row] = [
    Row(
        Text(r"repro\.core\.bench|BENCH_faults_baseline",
             ("from repro.core.bench import run_gate", "BENCH_faults_baseline.json")),
        ("src", "tests", "examples"),
        "one bench package",
        "one bench package and one baseline file: neither old name returns",
        "docs/benchmarking.md#One baseline file",
    ),
    Row(
        Only(r"perf_counter|time\.time\(", "started = time.perf_counter()",
             files=("src/repro/core/experiments/cli.py",),
             ignore=("src/repro/analysis/lint.py",)),
        PACKAGE,
        "host time has one owner",
        "host time is the ledger's; the one clock read is the `all` progress "
        "line (analysis/lint.py names the calls, it does not make them)",
        "docs/performance.md#Wall-clock metrics in the BENCH gate",
    ),
    Row(
        Lines(90),
        MAIN,
        "One front door",
        "__main__ only dispatches; a subcommand registers next to its code",
        "docs/architecture.md#The command line",
    ),
    Row(
        Text(r"add_argument", ("parser.add_argument('--flag')",)),
        MAIN,
        "One front door",
        "__main__ registers no option of its own",
        "docs/architecture.md#The command line",
    ),
    Row(
        Text(r"def format_table", ("def format_table(self):",), most=1),
        FIGURE_MODULES,
        "A figure is one declared sweep",
        "a figure renders through the one SweepResult.format_table "
        "(the node-selection comparison is the one bespoke table)",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Text(r"^class .*(Point|Result|Study|Ablation)\b|^def run_",
             ("class Fig6Result:", "def run_fig6(env):")),
        FIGURE_MODULES,
        "A figure is one declared sweep",
        "no per-figure result class or run_* function: a figure is a FIGURES row",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Absent(),
        ("src/repro/core/export.py",),
        "A figure is one declared sweep",
        "figures export through the one sweep result, not a module of their own",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Text(r"run_fig6|run_fig8|run_fig15|run_scaling_study|"
             r"run_node_selection_ablation|run_buffer_choice_ablation",
             ("run_fig6", "run_fig8", "run_fig15", "run_scaling_study",
              "run_node_selection_ablation", "run_buffer_choice_ablation")),
        ("src", "tests", "examples", "benchmarks"),
        "A figure is one declared sweep",
        "the per-figure drivers are gone; measure_points runs every sweep",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Ast(takes_verify, "def deploy(plan, verify=True):\n    return plan"),
        PACKAGE,
        "deploy raises what the verifier rejects",
        "verification is the explicit deployer.verify(placed) stage, "
        "never a mode threaded through a signature",
        "docs/static-analysis.md#The two-way contract",
    ),
    Row(
        Text(r"snapshot_state|restore_state|strategy_name",
             ("def snapshot_state(self):", "def restore_state(self, state):",
              "strategy_name = 'greedy'")),
        PACKAGE,
        "deploy raises what the verifier rejects",
        "the warm-start snapshot capability and the strategy display names stay gone",
        "docs/static-analysis.md#The two-way contract",
    ),
    Row(
        Text(re.escape('"_defused", True'), ('setattr(process, "_defused", True)',)),
        PACKAGE,
        "deploy raises what the verifier rejects",
        "a handled process failure is Process.defuse(), not a copy of it",
        "docs/static-analysis.md#The two-way contract",
    ),
    Row(
        Absent(),
        ("src/repro/analysis/snapshot.py",),
        "placement state has one copy",
        "verification walks the real CNDBs between template.snapshot() and restore()",
        "docs/performance.md#Topology snapshot / fork",
    ),
    Row(
        Text(r"EnvironmentSnapshot|class PlanVerifier|"
             r"def (copy|first_available|round_robin|advance_round_robin)\(",
             ("class EnvironmentSnapshot:", "class PlanVerifier:", "def copy(self):",
              "def first_available(self):", "def round_robin(self):",
              "def advance_round_robin(self):")),
        PACKAGE,
        "placement state has one copy",
        "no CNDB copy, no stateful multi-plan verifier, one naive node selector",
        "docs/performance.md#Topology snapshot / fork",
    ),
    Row(
        Text(r"deque", ("from collections import deque",)),
        ("src/repro/sim/resources.py",),
        "a kernel store costs what it holds",
        "no kernel queue is a deque",
        "docs/performance.md#A store costs what it holds",
    ),
    Row(
        Holds(chaos_is_a_calendar_queue,
              "class CalendarQueue:\n    batched = True\n\n\n"
              "class ShuffleScheduler:\n    batched = True"),
        ("src/repro/sim/scheduler.py",),
        "The race detector runs the loop production runs",
        "chaos replays drain through the production loop, _run_batched",
        "docs/performance.md#Kernel architecture",
    ),
    Row(
        words("outage_rate_ratio", "bandwidth_dip", "busiest_resource", "write_csv",
              "component_totals", "in_flight_of", "link_slowdown", "uplink_slowdown",
              "io_node_of", "blocked_deposits", "update_series", "events_of", "AllOf"),
        ("src", "tests", "examples", "benchmarks"),
        "The race detector runs the loop production runs",
        "the kernel's unused surface and the old standing deletion list stay gone",
        "docs/performance.md#Kernel architecture",
    ),
    Row(
        words("higher_is_better", "MetricDelta", "DEFAULT_TOLERANCE_PCT", "format_comparison"),
        ("src", "tests", "examples", "docs"),
        "The BENCH gate compares by equality",
        "every BENCH key is simulated and seeded, so the gate compares by equality",
        "docs/benchmarking.md#Gate mode",
    ),
    Row(
        Options(("bench",), ("--tolerance",)),
        MAIN,
        "The BENCH gate compares by equality",
        "an equality gate has no tolerance to set",
        "docs/benchmarking.md#Gate mode",
    ),
    Row(
        words("AdaptiveConfig", "detector_kwargs", "add_detector_flags", "live_window_arg",
              "with_solo"),
        ("src", "tests", "examples", "docs"),
        "A knob no caller turns is a constant",
        "the live plane runs at one window, under one detector, with one policy",
        "docs/adaptive.md#The control loop",
    ),
    Row(
        Options(("bench", "top", "adaptive", "multiquery"),
                ("--live-window", "--window", "--detect-")),
        MAIN,
        "A knob no caller turns is a constant",
        "no flag sets the window, the detector thresholds or the adaptive tuning",
        "docs/adaptive.md#The control loop",
    ),
    Row(
        words("Chain", "Journey", "_Hops", "Ingress", "_reraise"),
        ("src", "tests"),
        "A buffer in flight is a generator again",
        "a buffer in flight is a generator driven by sim.detach; the callback "
        "chains and their failure re-raiser stay gone",
        "docs/performance.md#A buffer in flight is not a process",
    ),
    Row(
        Only(r"\bimport gc\b", "import gc", files=("src/repro/sim/core.py",)),
        PACKAGE,
        "The collector stops re-walking a live session",
        "only Simulator.run touches the collector",
        "docs/performance.md#The collector and a live session",
    ),
    Row(
        Text(r"gc\.(freeze|unfreeze|disable)", ("gc.freeze()", "gc.unfreeze()", "gc.disable()")),
        PACKAGE,
        "The collector stops re-walking a live session",
        "a frozen or disabled collector defers full collections and leaks dead sessions",
        "docs/performance.md#The collector and a live session",
    ),
    Row(
        Ast(io_node_has_nic_rate, "class IONodeParams:\n    nic_rate: float = 1.0"),
        PACKAGE,
        "The repo's rules about itself are one tested table",
        "no code read the I/O node's NIC rate: its 850 Mbps proxy binds first",
        "docs/cost-model.md#Ethernet / TCP / I/O nodes",
    ),
    Row(
        words("listener_count"),
        ("src", "tests", "examples", "benchmarks"),
        "The repo's rules about itself are one tested table",
        "nothing read it; the leak census reads listener_owners()",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("ControlKind", "ControlMessage"),
        ("src", "tests", "examples", "benchmarks"),
        "The repo's rules about itself are one tested table",
        "no code sent one: stop is engine/control.py, end-of-stream the WireBuffer.eos marker",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("bytes_to_bits", "bits_to_bytes"),
        ("src", "tests", "examples", "benchmarks"),
        "The repo's rules about itself are one tested table",
        "nothing converted a bare bit count; rates convert with mbps, gbps and rate_bps",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        Ast(any_of_collects, "class AnyOf:\n    def _collect(self):\n        return {}"),
        PACKAGE,
        "A wait that loses holds nothing",
        "a fired AnyOf builds its value in _check, where it leaves the losers",
        "docs/performance.md#A wait that loses holds nothing",
    ),
    Row(
        words("charge_object", "next_object"),
        ("src", "tests", "examples", "benchmarks"),
        "An object pays one frame per modelled cost",
        "an operator loop charges through charge_cpu and takes a processed get's value "
        "in place, with no wrapper generator",
        "docs/performance.md#An object pays one frame per modelled cost",
    ),
    Row(
        Resolves(),
        DOCS,
        "The repo's rules about itself are one tested table",
        "a qualified reference names live code; history names deleted code unqualified",
        "docs/static-analysis.md#Removed surface",
    ),
]

LABELS = [row.check.label(row.scope) for row in ROWS]


@pytest.mark.parametrize("row", ROWS, ids=LABELS)
def test_row_holds(row):
    hits = row.check.hits(ROOT, row.scope)
    assert not hits, f"{row.reason} (see {row.doc}): {hits}"


@pytest.mark.parametrize("row", ROWS, ids=LABELS)
def test_row_fires_on_its_seed(row, tmp_path):
    expected = row.check.seed(tmp_path, row.scope)
    hits = row.check.hits(tmp_path, row.scope)
    assert expected
    assert [e for e in expected if not any(e in hit for hit in hits)] == [], hits


def test_rows_name_their_change_and_doc():
    changes = (ROOT / "CHANGES.md").read_text(encoding="utf-8")
    for row in ROWS:
        assert row.change in changes, row
        path, _, heading = row.doc.partition("#")
        headings = [line for line in _text(ROOT / path).splitlines() if line.startswith("#")]
        assert any(heading in line for line in headings), row


def test_bytecode_is_never_read(tmp_path):
    cache = tmp_path / "src" / "repro" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "lint.cpython-312.pyc").write_bytes(b"perf_counter time.time(")
    (cache / "stale.py").write_text("perf_counter\n")
    assert list(_files(tmp_path, PACKAGE)) == []
