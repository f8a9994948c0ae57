"""Removed surface stays removed: the repo's rules about itself, one table.

Each row of :data:`ROWS` pins one thing a change deleted or narrowed -- a
name, a module, a model parameter, a command-line option, a shape of the
code -- so that it cannot come back unnoticed.  A row has five fields:

* ``check``: what must hold (the check kinds are the classes below);
* ``scope``: the paths it reads, relative to the repository root;
* ``change``: the CHANGES.md entry that removed the thing, by its headline;
* ``reason``: one line on why it stays gone;
* ``doc``: ``docs/<file>.md#<heading>``, where its replacement is explained.

The determinism rules (``DET001``-``DET010``; ``DET006`` is retired) are
rows too: a ``Det`` check reads the syntax trees of its scope, parsed once
per session.

Text checks read ``*.py`` files, plus ``*.md`` under ``docs``.  They never
read ``__pycache__``, and they skip this module, which names everything it
forbids.  A later removal adds a row here; docs/static-analysis.md,
"Removed surface", says how.  Every row is checked twice: it holds on the
repository, and it fires on a temporary tree seeded with one occurrence.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import functools
import importlib
import importlib.util
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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


def _tree(path: Path) -> ast.Module:
    """The file's syntax tree, parsed once per session (per version of it)."""
    stat = path.stat()
    return _parse(path, stat.st_mtime_ns, stat.st_size)


@functools.lru_cache(maxsize=None)
def _parse(path: Path, _mtime_ns: int, _size: int) -> ast.Module:
    return ast.parse(_text(path), filename=str(path))


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
            for node in ast.walk(_tree(path))
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


@dataclass(frozen=True)
class Passed:
    """Every defaulted parameter of a function or method defined under the
    scope's first entry is passed by some call in the scope: by keyword or
    position, or through a ``*`` argument (every position) or a ``**``
    argument (every keyword).  A call matches a definition by name: a class name (or a subclass that
    inherits the constructor, or ``super().__init__`` in a subclass) calls
    its ``__init__``, and so does ``self.__class__(**fields)`` in
    ``Record.replace`` for every record class.  ``exempt`` names the functions reached only through
    data, as ``(path prefix, name pattern, reason)``; ``example`` is source
    whose parameter ``expected`` no call passes."""

    exempt: Tuple[Tuple[str, str, str], ...]
    example: str
    expected: str

    def label(self, scope: Tuple[str, ...]) -> str:
        return "every defaulted parameter is passed"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        calls: Dict[str, Tuple[float, Set[str]]] = {}
        bases: Dict[str, Set[str]] = {}
        own_init: Set[str] = set()

        def record(name: str, call: ast.Call) -> None:
            """Keep the most positions and every keyword a call of ``name``
            passes; ``*`` passes every position, ``**`` (kept as the
            keyword ``"**"``) every keyword."""
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            most, keywords = calls.get(name, (0, set()))
            calls[name] = (
                max(most, float("inf") if starred else len(call.args)),
                keywords | {keyword.arg or "**" for keyword in call.keywords},
            )

        for path in _files(root, scope):
            tree = _tree(path)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    bases.setdefault(node.name, set()).update(
                        getattr(base, "id", getattr(base, "attr", "")) for base in node.bases
                    )
                    if any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                           for item in node.body):
                        own_init.add(node.name)
                    for call in ast.walk(node):
                        if isinstance(call, ast.Call) and \
                                getattr(call.func, "attr", "") == "__init__":
                            for base in bases[node.name]:
                                record(base, call)
                elif isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name and name != "__init__":
                        record(name, node)

        def callers(cls: str) -> Set[str]:
            """``cls`` and the subclasses that inherit its constructor."""
            found = {cls}
            for child, parents in bases.items():
                if cls in parents and child not in own_init and child not in found:
                    found |= callers(child)
            return found

        unpassed = []
        for path in _files(root, scope[:1]):
            rel = _rel(root, path)
            for function, cls in _functions(_tree(path), None):
                if any(rel.startswith(prefix) and fnmatch.fnmatch(function.name, pattern)
                       for prefix, pattern, _reason in self.exempt):
                    continue
                names = callers(cls.name) | (
                    {"__class__"} if _derives(cls.name, "Record", bases) else set()
                ) if cls and function.name == "__init__" else {function.name}
                args = function.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls and not any(
                    getattr(d, "id", "") == "staticmethod" for d in function.decorator_list
                ) else 0
                defaulted = [
                    (arg.arg, index - skip)
                    for index, arg in enumerate(positional)
                    if index >= len(positional) - len(args.defaults)
                ] + [
                    (arg.arg, float("inf"))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                for param, index in defaulted:
                    if not any(calls[name][0] > index or {param, "**"} & calls[name][1]
                               for name in names if name in calls):
                        owner = f"{cls.name}." if cls else ""
                        unpassed.append(
                            f"{rel}:{function.lineno}: {owner}{function.name}({param})"
                        )
        return unpassed

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        _seed_file(root, scope, self.example.splitlines())
        return [self.expected]


def _derives(cls: str, ancestor: str, bases: Dict[str, Set[str]]) -> bool:
    """``cls`` names ``ancestor`` among its bases, directly or through them."""
    return any(base == ancestor or _derives(base, ancestor, bases)
               for base in bases.get(cls, ()) if base != cls)


def _functions(
    node: ast.AST, cls: Optional[ast.ClassDef]
) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Every function below ``node``, with the class it is a method of."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _functions(child, child)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child, cls  # type: ignore[misc]
            yield from _functions(child, None)
        else:
            yield from _functions(child, cls)


#: The container methods that change their receiver in place.
MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "popitem", "remove", "discard", "update",
    "setdefault", "clear", "add", "sort", "reverse", "appendleft", "popleft",
    "move_to_end", "__setitem__", "__delitem__",
})


def _bound(statement: ast.stmt) -> Set[str]:
    """The names a top-level statement binds: assignment targets and imports."""
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return {(alias.asname or alias.name).split(".")[0] for alias in statement.names}
    targets = (statement.targets if isinstance(statement, ast.Assign)
               else [statement.target] if isinstance(statement, (ast.AnnAssign, ast.AugAssign))
               else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def global_state(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, name)`` of every site where a function changes module state:
    a ``global`` statement, or an item or attribute store, a ``del``, an
    augmented assignment or a :data:`MUTATORS` call whose receiver is a
    module-level name (named as itself) or an attribute of ``cls`` or of a
    class of the module (named ``Class.attribute``)."""
    module = set().union(*map(_bound, tree.body))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    for function, cls in _functions(tree, None):
        args = function.args
        declared = {name for node in ast.walk(function) if isinstance(node, ast.Global)
                    for name in node.names}
        local = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                     args.vararg, args.kwarg) if arg} | {
            node.id for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        local -= declared

        def owner(node: ast.AST) -> Optional[str]:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                    node.value.id == "cls" or node.value.id in classes - local):
                base = cls.name if cls and node.value.id == "cls" else node.value.id
                return f"{base}.{node.attr}"
            if isinstance(node, (ast.Attribute, ast.Subscript)):
                return owner(node.value)
            if isinstance(node, ast.Name) and node.id in module - local:
                return node.id
            return None

        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                yield from ((node.lineno, name) for name in node.names)
                continue
            if isinstance(node, (ast.Attribute, ast.Subscript)) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                name = owner(node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATORS:
                name = owner(node.func.value)
            else:
                continue
            if name:
                yield node.lineno, name


@dataclass(frozen=True)
class Global:
    """No function under the scope changes module state after import
    (:func:`global_state`), except at the ``allowed`` sites, each given as
    ``(path, name, reason)``; an allowed site that no longer changes state
    is reported too.  ``example`` is source whose sites are ``expected``."""

    allowed: Tuple[Tuple[str, str, str], ...]
    example: str
    expected: Tuple[str, ...]

    def label(self, scope: Tuple[str, ...]) -> str:
        return "no process-global state"

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        allowed = {(path, name) for path, name, _reason in self.allowed}
        found: Dict[Tuple[str, str], int] = {}
        for path in _files(root, scope):
            for line, name in global_state(_tree(path)):
                found.setdefault((_rel(root, path), name), line)
        return [
            f"{path}:{line}: {name}"
            for (path, name), line in sorted(found.items()) if (path, name) not in allowed
        ] + [
            f"{path}: {name} is allowed but no longer changed"
            for path, name in sorted(allowed - set(found))
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        _seed_file(root, scope, self.example.splitlines())
        return list(self.expected)


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


_SUPPRESS = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Det:
    """Determinism rule ``code``: ``find`` reports nothing in the scope's
    Python source, except in paths starting with one of ``exempt`` and on
    lines whose ``# lint: disable=<code>[,<code>]`` comment names the rule.
    ``example`` is source on which it reports exactly ``lines``; the
    self-test seeds it into every entry of the scope."""

    code: str
    find: Callable[[ast.Module, str], Iterator[Tuple[int, str]]]
    example: str
    lines: Tuple[int, ...]
    exempt: Tuple[str, ...] = ()

    def label(self, scope: Tuple[str, ...]) -> str:
        return self.code

    def check(self, root: Path, path: Path) -> List[Tuple[int, str]]:
        """``(line, message)`` of every finding in one file of the scope."""
        rel = _rel(root, path)
        if rel.startswith(self.exempt):
            return []
        source = _text(path).splitlines()
        return [
            (line, message)
            for line, message in self.find(_tree(path), rel)
            for match in [_SUPPRESS.search(source[line - 1])]
            if not match or self.code not in {c.strip() for c in match.group(1).split(",")}
        ]

    def hits(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        return [
            f"{_rel(root, path)}:{line}: {self.code} {message}"
            for path in _files(root, scope)
            for line, message in self.check(root, path)
        ]

    def seed(self, root: Path, scope: Tuple[str, ...]) -> List[str]:
        seeded = [_seed_file(root, (entry,), self.example.splitlines()) for entry in scope]
        return [f"{name}:{line}:" for name in seeded for line in self.lines]


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


#: Report fields and net attributes that copied a count its owner keeps.
COUNT_COPIES = ("torus_bytes", "ingress_bytes", "source_switches")


def copies_a_count(node: ast.AST) -> bool:
    """An attribute read or write of a deleted copy of a count (the counter
    names, strings such as ``"torus.source_switches"``, are not attributes),
    or ``ExecutionReport`` declaring one of them or a ``metrics`` field."""
    if isinstance(node, ast.Attribute):
        return node.attr in COUNT_COPIES
    return (
        isinstance(node, ast.ClassDef)
        and node.name == "ExecutionReport"
        and any(
            isinstance(statement, ast.AnnAssign)
            and getattr(statement.target, "id", None) in COUNT_COPIES + ("metrics",)
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


def eager_package_import(node: ast.AST) -> bool:
    """An import from ``repro`` other than the lazy re-export helper."""
    return (
        isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("repro"))
        and node.module != "repro.util.lazy"
    )


def chaos_is_a_calendar_queue(module) -> bool:
    """``ShuffleScheduler`` is a batched ``CalendarQueue``."""
    return issubclass(module.ShuffleScheduler, module.CalendarQueue) and bool(
        module.ShuffleScheduler.batched
    )


# The determinism rules (``DET00x``): the same seed must replay the same
# events.  Each ``find`` takes a module's tree and its path below the
# repository root and yields ``(line, message)``.

WALL_CLOCK = {
    ("time", name) for name in ("time", "time_ns", "perf_counter", "perf_counter_ns",
                                "monotonic", "monotonic_ns", "process_time")
} | {("datetime", "now"), ("datetime", "utcnow"), ("date", "today")}
GLOBAL_RANDOM = {
    ("random", name) for name in ("random", "randint", "randrange", "uniform", "gauss",
                                  "choice", "choices", "shuffle", "sample", "seed")
}


def _calls(names: Set[Tuple[str, str]], message: str):
    """``<module>.<function>()`` calls of ``names`` (DET001, DET002)."""

    def find(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and (func.value.id, func.attr) in names):
                yield node.lineno, message.format(call=f"{func.value.id}.{func.attr}")

    return find


def iterates_a_set(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    """DET003: a loop or comprehension over a set display, a set
    comprehension or a bare ``set()``/``frozenset()`` (``sorted`` restores order)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [generator.iter for generator in node.generators]
        else:
            continue
        for it in iters:
            if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset")
            ):
                yield it.lineno, ("iterating a set: order varies between runs/builds; "
                                  "iterate a list/tuple or sort first")


def _declares_slots(cls: ast.ClassDef) -> bool:
    """``__slots__`` in the body."""
    for statement in cls.body:
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target] if isinstance(statement, ast.AnnAssign) else [])
        if any(isinstance(target, ast.Name) and target.id == "__slots__" for target in targets):
            return True
    return False


def unslotted_class(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    """DET004: every class of ``repro.sim`` but an ``Exception`` subclass
    (its base carries a ``__dict__`` regardless), and every ``*Snapshot`` or
    ``*Template`` class of ``repro.hardware`` (one per fork), is flat."""
    kernel = path.startswith("src/repro/sim/")
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or _declares_slots(cls):
            continue
        covered = not any(
            isinstance(base, ast.Name) and base.id in ("Exception", "BaseException")
            for base in cls.bases
        ) if kernel else cls.name.endswith(("Snapshot", "Template"))
        if covered:
            noun = "kernel class" if kernel else "fork-lifecycle class"
            yield cls.lineno, (f"{noun} {cls.name} has no __slots__; instances are "
                               "allocated on the hot path")


def _reads_enabled(test: ast.AST) -> bool:
    return any(
        isinstance(node, ast.Attribute) and node.attr == "enabled"
        or isinstance(node, ast.Name) and node.id == "enabled"
        for node in ast.walk(test)
    )


def _hook(node: ast.AST) -> Optional[str]:
    """The name of an ``obs.on_*``, ``flows.on_*`` or ``flows.begin/advance/end`` call."""
    func = node.func if isinstance(node, ast.Call) else None
    if not isinstance(func, ast.Attribute):
        return None
    owner = func.value
    name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
    if func.attr.startswith("on_") and name in ("obs", "flows"):
        return f"{name}.{func.attr}"
    if func.attr in ("begin", "advance", "end") and isinstance(owner, ast.Attribute) \
            and name == "flows":
        return f"flows.{func.attr}"
    return None


def unguarded_hook(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    """DET005: a hook call lies in the body of an ``if`` (or a conditional
    expression) whose test reads ``enabled``, so the disabled hub costs nothing."""
    spans = [
        (node.body[0].lineno, max(child.end_lineno for child in node.body))
        if isinstance(node, ast.If) else (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.If, ast.IfExp)) and _reads_enabled(node.test)
    ]
    for node in ast.walk(tree):
        hook = _hook(node)
        if hook and not any(start <= node.lineno <= end for start, end in spans):
            yield node.lineno, f"obs hook {hook}() called outside an `if ....enabled:` guard"


def _private(attributes: Tuple[str, ...], message: str):
    """Reads or writes of ``attributes`` on anything but ``self`` (DET007, DET010)."""

    def find(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in attributes and not (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                yield node.lineno, message.format(attr=node.attr)

    return find


def _formatted(node: ast.AST) -> bool:
    """An f-string with a field, ``"..." % x`` or ``"...".format(x)``."""
    if isinstance(node, ast.JoinedStr):
        return any(isinstance(value, ast.FormattedValue) for value in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        template = node.left
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr == "format"):
        template = node.func.value
    else:
        return False
    return isinstance(template, ast.Constant) and isinstance(template.value, str)


def _formatted_below(node: ast.AST) -> Iterator[ast.AST]:
    """Formatted strings below ``node``, but not in the body of an ``if <x>
    is None:``: the branch that binds an instrument once."""
    if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) and (
        isinstance(node.test.ops[0], ast.Is)
        and isinstance(node.test.comparators[0], ast.Constant)
        and node.test.comparators[0].value is None
    ):
        children = node.orelse
    elif isinstance(node, ast.expr) and _formatted(node):
        yield node
        return
    else:
        children = list(ast.iter_child_nodes(node))
    for child in children:
        yield from _formatted_below(child)


def formatted_hot_name(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    """DET008: no string is formatted in an ``enabled``-guarded body (once
    per event), and no ``.process(name=...)`` in a generator formats its
    name (once per pass; only the tracer and the sanitizer read it)."""
    seen: Set[Tuple[int, int]] = set()  # nested guards walk a statement twice
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and _reads_enabled(node.test):
            for statement in node.body:
                for found in _formatted_below(statement):
                    if (found.lineno, found.col_offset) not in seen:
                        seen.add((found.lineno, found.col_offset))
                        yield found.lineno, ("name formatted inside an enabled-guarded hook; "
                                             "bind it once under `if ... is None:`")
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or not any(
            isinstance(node, (ast.Yield, ast.YieldFrom)) for node in ast.walk(func)
        ):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "process":
                for keyword in node.keywords:
                    if keyword.arg == "name" and _formatted(keyword.value):
                        yield keyword.value.lineno, ("process name formatted on every pass "
                                                     "through a generator body")


#: ``(method, positional arguments)`` of the calls whose event may come back
#: already processed, and the calls that schedule an urgent event.
CREATORS = {("request", 0), ("get", 0), ("put", 1)}
URGENT = ("process", "detach", "interrupt")


def _created(value: ast.AST, target: Optional[ast.AST]) -> Optional[str]:
    """The name bound to a freshly created kernel event, if any."""
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
            and (value.func.attr, len(value.args)) in CREATORS
            and isinstance(target, ast.Name)):
        return target.id
    return None


def urgent_in_grant_window(tree: ast.Module, path: str) -> Iterator[Tuple[int, str]]:
    """DET009: between creating a ``request()``/``get()``/``put(x)`` event
    and yielding it, guard-testing it or appending a callback (both read
    ``.callbacks``), no ``.process(``/``.detach(``/``.interrupt(``: a grant
    delivered synchronously would overtake the urgent event they schedule."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        pending: Dict[str, int] = {}  # event name -> the line that created it
        nodes = [node for node in ast.walk(func) if hasattr(node, "lineno")]
        for node in sorted(nodes, key=lambda node: (node.lineno, node.col_offset)):
            bound: List[Optional[str]] = []
            if isinstance(node, ast.Assign):
                bound = [_created(node.value, node.targets[0])]
            elif isinstance(node, ast.With):
                bound = [_created(item.context_expr, item.optional_vars) for item in node.items]
            elif isinstance(node, (ast.Yield, ast.Attribute)) and isinstance(
                node.value, ast.Name
            ) and getattr(node, "attr", "callbacks") == "callbacks":
                pending.pop(node.value.id, None)  # waited on, or guard-tested
            elif pending and isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and node.func.attr in URGENT:
                name, line = next(iter(pending.items()))
                yield node.lineno, (f".{node.func.attr}() between creating event {name!r} "
                                    f"(line {line}) and waiting on it")
            pending.update((name, node.lineno) for name in bound if name)

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
PACKAGE_INITS = tuple(
    _rel(ROOT, path) for path in sorted((ROOT / "src" / "repro").rglob("__init__.py"))
)
#: The simulation's hot path, where the same seed must replay the same
#: events: the kernel, the networks, the engine, the topology (its
#: snapshot/fork lifecycle is kernel state) and the adaptive controller,
#: which steps the simulator and picks migration victims.
HOT = ("src/repro/sim", "src/repro/net", "src/repro/engine", "src/repro/hardware",
       "src/repro/core/adaptive.py")
#: The packages whose code runs once per simulated event or buffer.
PER_EVENT = ("src/repro/sim", "src/repro/net", "src/repro/engine")
DETERMINISM = "One engine for the repo's rules about its own source"
DET_DOC = "docs/static-analysis.md#Determinism lints (`DET00x`)"
FEED = "A feed has one reader"
FEED_DOC = "docs/observability.md#The live telemetry plane (`repro.obs.live`)"
COUNT = "A count has one owner"
COUNT_DOC = "docs/observability.md#What gets recorded"
KNOB = "A knob no caller turns is a constant, second pass"
ANALYZE = "`analyze` verifies the caller's queries"
ANALYZE_DOC = "docs/static-analysis.md#Static analysis: the plan verifier"
SCOPED = "A run's inputs are scoped"
SCOPED_DOC = "docs/static-analysis.md#Removed surface"
LAUNCH = "A launch generates no code"
LAUNCH_DOC = "docs/performance.md#A launch generates no code"
UNHEARD = "A process nobody waits on ends without an event"
UNHEARD_DOC = "docs/performance.md#A process nobody waits on ends without an event"
STOP = "A user stop is a deadline the client manager waits on"
STOP_DOC = "docs/architecture.md#6. Run"

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
             files=("src/repro/core/experiments/cli.py",)),
        PACKAGE,
        "host time has one owner",
        "host time is the ledger's; the one clock read is the `all` progress line",
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
        ("tests/integration/test_fast_shapes.py",),
        "A paper claim is one predicate",
        "a claim is one CLAIMS row, evaluated once on the quick sweeps, not a second "
        "ordinal copy of it",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Absent(),
        ("bench_shapes_output.txt",),
        "A paper claim is one predicate",
        "a benchmark's output is what a run prints, not a committed log of an old tree",
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
        words("run_contention_demo", "add_multiquery_parser", "solo_mbps", "_PointSpec"),
        ("src", "tests", "examples", "docs"),
        "A point may be a session",
        "concurrent queries are session points of a FIGURES row, measured by measure_points; "
        "there is no second runner, solo-baseline field or private spec type",
        "docs/architecture.md#Adding a measured figure",
    ),
    Row(
        Options(("multiquery",), ("--streams", "--array-bytes", "--count", "--seed",
                                  "--live-out")),
        MAIN,
        "A point may be a session",
        "multiquery is a figure command and takes only the figure flags",
        "docs/architecture.md#The command line",
    ),
    Row(
        Passed(
            exempt=(
                ("src/repro/core/experiments/", "*_specs",
                 "a FIGURES row's spec builder: run_sweep calls it as "
                 "sweep.specs(**arguments)"),
                ("src/repro/engine/operators/", "__init__",
                 "an Operator constructor: RunningProcess builds it as cls(ctx, inputs, "
                 "output, *spec.args), tests through run_operator(..., **kwargs)"),
            ),
            example="def signal(count, noise=0.05):\n    return [noise] * count\n\n\n"
                    "signal(3)\n",
            expected="signal(noise)",
        ),
        ("src/repro", "benchmarks", "examples", "tests", "conftest.py"),
        KNOB,
        "a parameter that every call leaves at its default is the constant it always was",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("MapFunction", "kwargs_dict"),
        ("src", "tests", "examples", "benchmarks", "docs"),
        KNOB,
        "no SCSQL text reaches a map operator or a keyword plan argument: the compiler "
        "emits positional arguments of registered builtins only",
        "docs/static-analysis.md#Removed surface",
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
        "nothing read it, and the listener registry it counted is gone too",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("ControlKind", "ControlMessage"),
        ("src", "tests", "examples", "benchmarks"),
        "The repo's rules about itself are one tested table",
        "no code sent one: a user stop is a deadline the client manager waits on, "
        "end-of-stream the WireBuffer.eos marker",
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
        Ast(eager_package_import, "from repro.obs.instrument import Instrumentation"),
        PACKAGE_INITS,
        "A launch loads what its queries run",
        "a package re-exports through repro.util.lazy.lazy_exports, so importing "
        "one module loads only what that module imports",
        "docs/performance.md#A launch loads what it runs (PR 40)",
    ),
    Row(
        Det("DET001", _calls(WALL_CLOCK, "{call}() reads the wall clock; use sim.now"),
            "import time\n\n\ndef stamp():\n    return time.time()\n", (5,)),
        HOT,
        DETERMINISM,
        "a wall-clock read makes a replay depend on the host",
        DET_DOC,
    ),
    Row(
        Det("DET002", _calls(GLOBAL_RANDOM, "{call}() draws from the global RNG; use a "
                             "seeded random.Random(seed)"),
            "import random\n\n\ndef jitter():\n    return random.random()\n", (5,)),
        HOT,
        DETERMINISM,
        "the global RNG is shared, unseeded state",
        DET_DOC,
    ),
    Row(
        Det("DET003", iterates_a_set,
            "def pick(items):\n    for item in {i for i in items}:\n        return item\n"
            "    return [item for item in set(items)]\n", (2, 4)),
        HOT,
        DETERMINISM,
        "set order varies between runs and builds",
        DET_DOC,
    ),
    Row(
        Det("DET004", unslotted_class,
            "class Event:\n    __slots__ = ()\n\n\nclass TopoSnapshot(Event):\n    pass\n", (5,)),
        ("src/repro/sim", "src/repro/hardware"),
        DETERMINISM,
        "kernel and fork-lifecycle objects are allocated per event or fork: no instance dict",
        DET_DOC,
    ),
    Row(
        Det("DET005", unguarded_hook,
            "def restore(obs, snapshot):\n    obs.on_restore(snapshot)\n", (2,)),
        HOT,
        DETERMINISM,
        "with observation off, a hook costs one attribute test",
        DET_DOC,
    ),
    Row(
        Det("DET007", _private(("_heap", "_buckets", "_times", "_next_seq"),
                               "scheduler internal .{attr}: same-instant order is the "
                               "backend's, and chaos shuffles it"),
            "def peek(sim):\n    return sim.scheduler._heap[0]\n", (2,),
            exempt=("src/repro/sim/",)),
        PACKAGE,
        DETERMINISM,
        "only the kernel reads its queue layout; others use push/pop/next_time",
        DET_DOC,
    ),
    Row(
        Det("DET008", formatted_hot_name, textwrap.dedent("""
            def emit(self, buffer, node):
                obs = self.sim.obs
                flows = obs.flows
                if obs.enabled:
                    obs.add(f"torus.source_switches[node={node}]")
                    obs.add("torus.source_switches[node=%s]" % node)
                    obs.record_level("io[{}]".format(node), 1)
                if flows.enabled:
                    flows.hop(buffer, "torus.inject", 1.0, resource=f"coproc[{node}]")
            """), (6, 7, 8, 10)),
        PER_EVENT,
        DETERMINISM,
        "a name formatted per event is host work the bound instruments removed",
        DET_DOC,
    ),
    Row(
        Det("DET009", urgent_in_grant_window, textwrap.dedent("""
            def send(self, buffer):
                slot = self.window.get()
                self.sim.process(self._forward(buffer))
                yield slot

            def stop(self, victim):
                with self.cpu.request() as req:
                    victim.interrupt("stop")
                    yield req

            def deposit(self, buffer):
                done = self.inbox.put(buffer)
                self.sim.process(self._ack(buffer))
                if done.callbacks is not None:
                    yield done

            def forward(self, buffer):
                slot = self.window.get()
                self.sim.detach(self._forward(buffer))
                if slot.callbacks is not None:
                    yield slot
            """), (4, 9, 14, 20)),
        PER_EVENT,
        DETERMINISM,
        "a grant delivered at creation must not overtake an urgent event",
        DET_DOC,
    ),
    Row(
        Det("DET010", _private(("_rr_cursor",),
                               "CNDB round-robin cursor .{attr}: only the resolver's "
                               "atomic walk saves or rewinds it"),
            textwrap.dedent("""
            def deploy(self, env):
                saved = {name: env.cndb(name)._rr_cursor for name in env.cluster_names()}
                return saved

            def teardown(self, env, saved):
                for name, cursor in saved.items():
                    env.cndb(name)._rr_cursor = cursor
            """), (3, 8),
            exempt=("src/repro/hardware/", "src/repro/coordinator/resolver.py")),
        PACKAGE,
        DETERMINISM,
        "a second writer of the cursor let a failed deployment shift later placements",
        DET_DOC,
    ),
    Row(
        Text(r"lint:\s*disable-file", ("# lint: disable-file=DET004",)),
        ("src",),
        DETERMINISM,
        "a suppression names its line; no file opts out of a determinism rule",
        DET_DOC,
    ),
    Row(
        Absent(),
        ("src/repro/analysis/lint.py",),
        DETERMINISM,
        "the DET rules are rows of this table, with one suppression syntax and no CLI",
        DET_DOC,
    ),
    Row(
        Absent(),
        ("src/repro/analysis/defects.py",),
        DETERMINISM,
        "the seeded-defect harnesses are test fixtures: tests/analysis/defects.py",
        "docs/static-analysis.md#Seeded-defect catalogue",
    ),
    Row(
        Absent(),
        ("src/repro/analysis/pytest_plugin.py",),
        DETERMINISM,
        "--sanitize and --chaos-seed of pytest are hooks of the root conftest.py",
        "docs/static-analysis.md#Running under the sanitizer",
    ),
    Row(
        Options(("analyze",), ("--defect",)),
        MAIN,
        DETERMINISM,
        "the defect harnesses run in tier-1, not from the command line",
        "docs/static-analysis.md#Seeded-defect catalogue",
    ),
    Row(
        words("pending_bytes"),
        ("src", "tests", "examples", "benchmarks"),
        DETERMINISM,
        "only a test read it; SenderDriver reads the marshaller's own counter",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("AnyOf"),
        ("src/repro/engine",),
        "A flush wait is a bare get",
        "a sender waits on the bare get, and its partial buffer's one timer wakes it "
        "through repro.sim.wake",
        "docs/performance.md#An object pays one frame per modelled cost",
    ),
    Row(
        words("add_listener", "remove_listener", "listener_owners", "OwnedListeners",
              "ENV_LIFETIME_OWNERS", "audit_migrate", "allowed_owners", "flows_delivered",
              "flow_bytes", "_stream_sources", "_flow_listener", "_listeners",
              "unowned_listener", "defect_san206"),
        ("src", "tests", "examples", "benchmarks"),
        FEED,
        "a feed has one reader, wired once: the flow recorder's is the live sampler, "
        "and the adaptive controller reads the detector's events between steps",
        FEED_DOC,
    ),
    Row(
        Text(r"\bowner=|SAN206|DET006", ("owner=", "SAN206", "DET006")),
        PACKAGE,
        FEED,
        "with no listener registry there is no owner to tag, no census and no lint for it",
        FEED_DOC,
    ),
    Row(
        words("buffers_delivered", "buffers_forwarded", "bytes_in", "fn_name", "stop_time"),
        ("src", "tests", "examples", "benchmarks"),
        FEED,
        "write-only state: set on the hot path and read by nothing but a test",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        Text(r"\.slots\b", ("self.slots = slots",)),
        PACKAGE,
        FEED,
        "an Inbox's slot count lives in its token pool; nothing read the copy",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("bytes_on_wire", "bytes_ingress", "_stream_bytes", "_stream_counters"),
        ("src", "tests", "examples", "benchmarks"),
        COUNT,
        "a count has one owner: the drivers' attributes per stream, the obs counters "
        "torus.payload_bytes and ethernet.ingress_bytes for the nets",
        COUNT_DOC,
    ),
    Row(
        words("_counters"),
        ("src/repro/engine",),
        COUNT,
        "a driver counts its stream in bytes_sent/buffers_sent (bytes_received/"
        "buffers_received) only; the registry holds no second copy",
        COUNT_DOC,
    ),
    Row(
        Text(r"stream\.(?:(?:bytes|buffers)_(?:sent|received)|torus_bytes|tcp_bytes)\b",
             ('obs.metrics.counter(f"stream.bytes_sent[{stream_id}]")',
              'f"stream.torus_bytes[{buffer.stream_id}]"')),
        PACKAGE,
        COUNT,
        "the RP gauges rp.<rp>.{sent,recv}.{bytes,buffers}[<stream>] publish the "
        "drivers' own counts",
        COUNT_DOC,
    ),
    Row(
        Ast(copies_a_count, "report.source_switches = torus.source_switches"),
        ("src", "tests", "examples", "benchmarks"),
        COUNT,
        "a report copies no registry and no net total: read the hub "
        "(env.obs.snapshot()) and its counters",
        COUNT_DOC,
    ),
    Row(
        words("freeze"),
        PACKAGE,
        COUNT,
        "a run freezes nothing; a frozen copy of the registry is env.obs.snapshot()",
        COUNT_DOC,
    ),
    Row(
        words("memory_bytes", "compute_memory_bytes"),
        ("src", "tests", "examples", "benchmarks"),
        COUNT,
        "write-only hardware facts: set by both cluster builders, read by nothing",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        words("operator_queue_depth"),
        ("src", "tests", "examples", "benchmarks"),
        COUNT,
        "no caller set it: the depth is OPERATOR_QUEUE_DEPTH beside its one reader, "
        "repro.engine.rp",
        "docs/static-analysis.md#Removed surface",
    ),
    Row(
        Options(("analyze",), ("--example", "--sweeps", "--bench", "--sanitize", "--chaos-seeds")),
        MAIN,
        ANALYZE,
        "tier-1 verifies the repo's own plans and runs its sanitizer clean run; "
        "analyze reads the caller's queries and files",
        ANALYZE_DOC,
    ),
    Row(
        words("_example_statements", "_sweep_reports", "_bench_statements", "_parse_seeds",
              "_sanitize_clean_run", "_run_sanitize", "_sanitize_wrap"),
        ("src", "tests", "examples", "benchmarks"),
        ANALYZE,
        "the self-check modes went with their helpers, and main() wraps every "
        "subcommand that has --sanitize/--chaos-seed",
        ANALYZE_DOC,
    ),
    Row(
        words("restore_link", "degraded_links"),
        ("src", "tests", "examples", "benchmarks"),
        ANALYZE,
        "no schedule healed a torus link: flapping restores only the uplink",
        "docs/benchmarking.md#Fault injection",
    ),
    Row(
        Text(r"restore-link", ('"restore-link",',)),
        PACKAGE,
        ANALYZE,
        "the one repair event is restore-uplink",
        "docs/benchmarking.md#Fault injection",
    ),
    Row(
        Global(
            allowed=(
                ("src/repro/sim/scheduler.py", "_DEFAULT_OVERRIDE",
                 "a chaos hook; ROADMAP item 14 folds it into one run-options context"),
                ("src/repro/net/jitter.py", "_FACTORY_OVERRIDE",
                 "a chaos hook; ROADMAP item 7 deletes it"),
                ("src/repro/analysis/sanitize.py", "_SCOPE",
                 "the sanitizer hook; ROADMAP item 14 folds it into one run-options context"),
                ("src/repro/analysis/sanitize.py", "_CHAOS_SEED",
                 "the chaos-seed hook; ROADMAP item 14 folds it into one run-options context"),
            ),
            example="class Registry:\n    _entries = {}\n\n    @classmethod\n"
                    "    def add(cls, name, value):\n        cls._entries[name] = value\n\n\n"
                    "_HOOK = None\n\n\ndef set_hook(hook):\n    global _HOOK\n"
                    "    _HOOK = hook\n",
            expected=("seeded.py:6: Registry._entries", "seeded.py:13: _HOOK"),
        ),
        PACKAGE,
        SCOPED,
        "a run's inputs live in its scope or its session, so two runs in one "
        "process never share them",
        SCOPED_DOC,
    ),
    Row(
        words("register_operator", "registered_operators", "_OPERATORS", "unregister_source"),
        ("src", "tests", "examples", "benchmarks", "docs"),
        SCOPED,
        "SCSQL emits only the built-in operator names, and a session's sources "
        "leave scope with its queries",
        SCOPED_DOC,
    ),
    Row(
        Text(r"SCSQSession\.register_source\(|ExternalReceiver\.(?:register|unregister|_registry)\b",
             ('SCSQSession.register_source("s", factory)', 'ExternalReceiver.register("s", f)',
              'ExternalReceiver.unregister("s")', "ExternalReceiver._registry")),
        ("src", "examples", "benchmarks", "tests"),
        SCOPED,
        "sources are registered on a session or in an external_sources block, "
        "never on the operator class",
        SCOPED_DOC,
    ),
    Row(
        Text(r"^\s*(?:from dataclasses import|import dataclasses\b|@dataclass\b)",
             ("from dataclasses import dataclass", "import dataclasses",
              "@dataclass(frozen=True)")),
        PACKAGE,
        LAUNCH,
        "a record is a slotted class with its own __init__: importing repro compiles no "
        "generated method",
        LAUNCH_DOC,
    ),
    Row(words("slot_init"), ("src", "tests", "examples", "benchmarks"), LAUNCH,
        "a frozen record stores its fields through its slots, in source", LAUNCH_DOC),
    Row(Absent(), ("src/repro/util/frozen.py",), LAUNCH,
        "repro.util.record is the one record base", LAUNCH_DOC),
    Row(words("_report_failure"), ("src", "tests", "examples", "benchmarks"), UNHEARD,
        "a crash reaches its query through its process's failure link, not through a "
        "callback that made every process end an event", UNHEARD_DOC),
    Row(Text(r":supervisor\b", ('name=f"{self.rp_id}:supervisor"',)), PACKAGE, UNHEARD,
        "stop-condition supervision is a callback on the root of an RP whose plan can "
        "stop early, not a process on every RP with inputs", UNHEARD_DOC),
    Row(Absent(), ("src/repro/engine/control.py",), STOP,
        "a user stop is a deadline the client manager's driver waits on beside the "
        "collector and the failure link, not a module of its own", STOP_DOC),
    Row(Text(r"\b(?:repro\.engine\.control|StopToken)\b",
             ("repro.engine.control", "StopToken")),
        ("src", "tests", "examples", "benchmarks", "docs"), STOP,
        "the deadline's one callback terminates the RPs; no token keeps its own RP list, "
        "event and cancel", STOP_DOC),
    Row(Text(r"stop-watchdog", ('name="stop-watchdog"',)), PACKAGE, STOP,
        "a stop starts no process: the deadline is a timeout the driver waits on",
        STOP_DOC),
    Row(
        Resolves(),
        DOCS,
        "The repo's rules about itself are one tested table",
        "a qualified reference names live code; history names deleted code unqualified",
        "docs/static-analysis.md#Removed surface",
    ),
]

LABELS = [row.check.label(row.scope) for row in ROWS]
DET = {row.check.code: row for row in ROWS if isinstance(row.check, Det)}


class Finding(NamedTuple):
    code: str
    line: int
    message: str


def det_findings(root: Path, path: Path) -> List[Finding]:
    """What the DET rows whose scope holds ``path`` say of that one file of
    the tree at ``root``, by line."""
    rel = _rel(root, path)
    found = [
        Finding(row.check.code, line, message)
        for row in DET.values()
        if any(rel == entry or rel.startswith(entry + "/") for entry in row.scope)
        for line, message in row.check.check(root, path)
    ]
    return sorted(found, key=lambda finding: (finding.line, finding.code))


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


@pytest.mark.parametrize("row", DET.values(), ids=list(DET))
def test_det_example_fires_on_exactly_its_lines(row, tmp_path):
    expected = row.check.seed(tmp_path, row.scope)
    found = {hit.split(" ")[0] for hit in row.check.hits(tmp_path, row.scope)}
    assert sorted(found) == sorted(expected)


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
