"""Determinism and correctness lints for the simulation kernel.

The DES substrate must be bit-reproducible: two runs with the same seed
must schedule the same events in the same order.  The lints below catch
the ways that property has historically been lost in stream-processing
simulators — wall-clock reads, unseeded global randomness, iteration over
unordered sets — plus two kernel-hygiene rules (``__slots__`` on event
classes, observability hooks outside their disabled-singleton guard).

Rules (``DET00x``):

* **DET001** — no wall-clock time sources (``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``datetime.now``, ...) in
  simulation code; simulated time comes from ``sim.now``.
* **DET002** — no module-level/global randomness (``random.random``,
  ``random.randint``, ...); use a seeded ``random.Random(seed)`` instance.
* **DET003** — no iteration over set displays or ``set()`` results; set
  iteration order is undefined across runs and Python builds.
* **DET004** — kernel classes must stay flat: *every* class in
  ``repro.sim`` (events, schedulers, resources, the simulator itself)
  and the snapshot/template classes of ``repro.hardware.environment``
  must declare ``__slots__`` (or ``@dataclass(slots=True)``); they are
  allocated per event / per fork and must not carry instance dicts.
* **DET005** — observability hook calls (``*.obs.on_*``, ``*.flows.*``)
  must be guarded by an ``if ....enabled`` test, so the disabled
  singleton costs nothing.
* **DET006** — listener lifecycle (anywhere in ``repro``): every
  ``add_listener()`` call must pass an ``owner=`` tag (the ``SAN206``
  leak census names leaks by owner), and a scope that subscribes a
  listener must somewhere call ``remove_listener()``.  Deliberate
  environment-lifetime subscriptions suppress the rule with a comment.
* **DET007** — no reliance on raw scheduler internals (``_heap``,
  ``_buckets``, ``_times``...) outside ``repro.sim``: same-instant
  bucket layout is backend-specific and permuted by the chaos
  scheduler, so reading it re-introduces exactly the schedule-order
  dependence the ``SAN101`` sanitizer exists to catch.
* **DET008** — no metric or resource name formatted per event: inside an
  ``obs.enabled`` / ``flows.enabled`` guarded block of ``repro.sim``,
  ``repro.net`` or ``repro.engine`` no string is formatted (f-string,
  ``%``, ``.format``), except under a nested ``if ... is None:`` — the
  branch that binds the instrument once; nor may the ``name=`` of a
  ``.process(...)`` call in a generator body be a formatted string.
* **DET009** — in ``repro.sim``/``repro.net``/``repro.engine`` the event
  returned by ``request()``/``put()``/``get()`` is yielded, guard-tested
  or handed a callback-chain step (both read ``.callbacks``) before any
  ``.process(``, ``.detach(`` or ``.interrupt(`` call: those schedule
  urgent events (``detach`` starts a chain on an urgent zero-delay event
  unless it is given one), the one thing a synchronously delivered grant
  (see docs/performance.md) would overtake.
* **DET010** — the CNDB round-robin cursor (``_rr_cursor``) is touched
  only by ``repro.hardware`` and the placement resolver
  (``repro.coordinator.resolver``), whose walk saves and rewinds it
  atomically; a second writer is how a failed deployment used to shift
  every later placement.

Run standalone (CI does)::

    python -m repro.analysis.lint [paths...] [--json]

Suppressions: ``# lint: disable=DET003`` on the offending line, or a
module-level ``# lint: disable-file=DET004`` anywhere in the file.
"""

from __future__ import annotations

import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import Diagnostic, Severity

__all__ = ["LintRule", "RULES", "lint_file", "lint_paths", "main"]

#: Directories (relative to ``src/repro``) whose code is simulation-kernel
#: hot path and must stay deterministic.  ``hardware`` joined when the
#: snapshot/fork lifecycle made topology state part of the kernel proper.
HOT_PACKAGES = ("sim", "net", "engine", "hardware")

#: Individual modules outside the hot packages that sit on the
#: simulation's decision path and must obey the same determinism rules.
#: The adaptive controller steps the simulator and picks migration
#: victims — any nondeterminism there reorders every event after it.
HOT_MODULES = (("core", "adaptive.py"),)

#: Wall-clock attribute calls banned in hot packages (DET001).
WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "process_time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: ``random``-module functions that consume the *global* (unseeded) RNG
#: (DET002).  ``random.Random(seed)`` instances are the sanctioned way.
GLOBAL_RANDOM_CALLS = {
    ("random", name)
    for name in ("random", "randint", "randrange", "uniform", "gauss",
                 "choice", "choices", "shuffle", "sample", "seed")
}

_SUPPRESS_LINE = re.compile(r"#\s*lint:\s*disable=([A-Z0-9,\s]+)")
_SUPPRESS_FILE = re.compile(r"#\s*lint:\s*disable-file=([A-Z0-9,\s]+)")


def _parse_suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """File-wide and per-line (1-based) rule suppressions from comments."""
    file_wide: Set[str] = set()
    per_line: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_FILE.search(line)
        if match:
            file_wide |= {c.strip() for c in match.group(1).split(",") if c.strip()}
        match = _SUPPRESS_LINE.search(line)
        if match:
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            per_line.setdefault(lineno, set()).update(codes)
    return file_wide, per_line


def _repro_parts(path: Path) -> Tuple[str, ...]:
    """The parts of ``path`` below the ``repro`` package: ``("sim",
    "core.py")`` for ``src/repro/sim/core.py``, ``()`` outside the package."""
    parts = path.parts
    if "repro" not in parts:
        return ()
    return parts[parts.index("repro") + 1:]


class LintRule:
    """One lint rule: a code, a description, and an AST check.

    Subclasses override :meth:`check`, yielding ``(lineno, message)``
    pairs.  ``hot_path_only`` restricts a rule to the simulation-kernel
    packages (:data:`HOT_PACKAGES`).
    """

    code = "DET000"
    title = "abstract rule"
    hot_path_only = True

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        raise NotImplementedError

    def applies_to(self, path: Path) -> bool:
        if not self.hot_path_only:
            return True
        rest = _repro_parts(path)
        return bool(rest) and (rest[0] in HOT_PACKAGES or rest in HOT_MODULES)


class BannedCallRule(LintRule):
    """``<name>.<function>()`` calls banned from simulation code; DET001 and
    DET002 are its two rows in :data:`RULES`."""

    def __init__(
        self, code: str, title: str, calls: Set[Tuple[str, str]], message: str
    ) -> None:
        self.code = code
        self.title = title
        self.calls = calls
        self.message = message

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and (func.value.id, func.attr) in self.calls
            ):
                yield (
                    node.lineno,
                    self.message.format(call=f"{func.value.id}.{func.attr}"),
                )


class SetIterationRule(LintRule):
    code = "DET003"
    title = "iteration over an unordered set"

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
            # sorted(set(...)) etc. re-establish order; bare set() does not
        )

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        for node in ast.walk(tree):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if self._is_set_expr(it):
                    yield (
                        it.lineno,
                        "iterating a set: order varies between runs/builds; "
                        "iterate a list/tuple or sort first",
                    )


class SlotsRule(LintRule):
    code = "DET004"
    title = "kernel class without __slots__"

    #: Every class in the kernel package is hot enough to require flat
    #: instances — events, schedulers, resources, the simulator.  In the
    #: hardware package only the fork-lifecycle classes qualify: snapshot
    #: and template instances are allocated per fork/snapshot.

    #: Hardware class-name suffixes covered by the rule.
    HARDWARE_SUFFIXES = ("Snapshot", "Template")

    def applies_to(self, path: Path) -> bool:
        rest = _repro_parts(path)
        return bool(rest) and rest[0] in ("sim", "hardware")

    @staticmethod
    def _declares_slots(cls: ast.ClassDef) -> bool:
        for stmt in cls.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__"
                for t in stmt.targets
            ):
                return True
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            ):
                return True
        # @dataclass(slots=True) synthesizes __slots__ at class creation.
        for deco in cls.decorator_list:
            if isinstance(deco, ast.Call) and any(
                kw.arg == "slots"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in deco.keywords
            ):
                return True
        return False

    def _covers(self, cls: ast.ClassDef, package: str) -> bool:
        if package == "sim":
            # Exception subclasses carry a base-class __dict__ regardless;
            # __slots__ there is convention, not a memory win, so they are
            # exempt.
            return not any(
                isinstance(b, ast.Name) and b.id in ("Exception", "BaseException")
                for b in cls.bases
            )
        return cls.name.endswith(self.HARDWARE_SUFFIXES)

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        package = _repro_parts(path)[0]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if not self._covers(cls, package):
                continue
            if not self._declares_slots(cls):
                noun = (
                    "kernel class" if package == "sim"
                    else "fork-lifecycle class"
                )
                yield (
                    cls.lineno,
                    f"{noun} {cls.name} has no __slots__ (or "
                    "dataclass slots=True); instances are allocated on the "
                    "hot path and must stay flat",
                )


class ObsGuardRule(LintRule):
    code = "DET005"
    title = "observability hook call outside its enabled-guard"

    @staticmethod
    def _is_obs_call(node: ast.Call) -> Optional[str]:
        """The rendered hook name when ``node`` is an obs hook call."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        # *.obs.on_xxx(...) / obs.on_xxx(...)
        if func.attr.startswith("on_"):
            owner = func.value
            if isinstance(owner, ast.Attribute) and owner.attr in ("obs", "flows"):
                return f"{owner.attr}.{func.attr}"
            if isinstance(owner, ast.Name) and owner.id in ("obs", "flows"):
                return f"{owner.id}.{func.attr}"
        # *.flows.begin/advance/end(...)
        if func.attr in ("begin", "advance", "end"):
            owner = func.value
            if isinstance(owner, ast.Attribute) and owner.attr == "flows":
                return f"flows.{func.attr}"
        return None

    @staticmethod
    def _guards(test: ast.AST) -> bool:
        """True when an ``if`` test consults an ``.enabled`` flag."""
        for sub in ast.walk(test):
            if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
                return True
            if isinstance(sub, ast.Name) and sub.id == "enabled":
                return True
        return False

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        guarded_spans: List[Tuple[int, int]] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.If) and self._guards(node.test):
                end = max(
                    (getattr(n, "end_lineno", n.lineno) for n in node.body),
                    default=node.lineno,
                )
                start = node.body[0].lineno if node.body else node.lineno
                guarded_spans.append((start, end))
            if isinstance(node, ast.IfExp) and self._guards(node.test):
                guarded_spans.append((node.lineno, getattr(node, "end_lineno", node.lineno)))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            hook = self._is_obs_call(node)
            if hook is None:
                continue
            line = node.lineno
            if any(start <= line <= end for start, end in guarded_spans):
                continue
            yield (
                line,
                f"obs hook {hook}() called outside an `if ....enabled:` "
                "guard; the disabled singleton must cost nothing",
            )


class ListenerLifecycleRule(LintRule):
    code = "DET006"
    title = "listener subscription without owner tag or matching detach"
    hot_path_only = False

    @staticmethod
    def _listener_calls(scope: ast.AST) -> Tuple[List[ast.Call], int]:
        adds: List[ast.Call] = []
        removes = 0
        for node in ast.walk(scope):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "add_listener":
                adds.append(node)
            elif node.func.attr == "remove_listener":
                removes += 1
        return adds, removes

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        claimed: Set[int] = set()
        scopes: List[Tuple[str, ast.AST]] = [
            (f"class {cls.name}", cls) for cls in classes
        ]
        for _label, cls in scopes:
            for node in ast.walk(cls):
                claimed.add(id(node))
        for label, scope in scopes:
            adds, removes = self._listener_calls(scope)
            yield from self._judge(label, adds, removes)
        # Module-level calls (outside every class definition).
        module_adds: List[ast.Call] = []
        module_removes = 0
        for node in ast.walk(tree):
            if id(node) in claimed or not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "add_listener":
                module_adds.append(node)
            elif node.func.attr == "remove_listener":
                module_removes += 1
        yield from self._judge("module scope", module_adds, module_removes)

    @staticmethod
    def _judge(
        label: str, adds: List[ast.Call], removes: int
    ) -> Iterable[Tuple[int, str]]:
        for call in adds:
            if not any(kw.arg == "owner" for kw in call.keywords):
                yield (
                    call.lineno,
                    "add_listener() without an owner= tag; the SAN206 "
                    "listener census cannot name the component responsible "
                    "for detaching it",
                )
            if removes == 0:
                yield (
                    call.lineno,
                    f"{label} subscribes a listener but never calls "
                    "remove_listener(); the subscription outlives its owner "
                    "(SAN206 at runtime) unless it is environment-lifetime — "
                    "suppress with a justifying comment if so",
                )


class SchedulerInternalsRule(LintRule):
    """Private attributes only their owning code may touch: this rule keeps
    the scheduler backends' queue layout inside ``repro.sim``, its subclass
    the CNDB cursor inside ``repro.hardware`` and the placement resolver."""

    code = "DET007"
    title = "reliance on raw scheduler internals outside the kernel"
    hot_path_only = False

    #: Private queue-layout attributes of the scheduler backends.  Their
    #: same-instant bucket order is backend-specific (and permuted by the
    #: chaos ShuffleScheduler); only the kernel itself may walk them.
    INTERNALS: Tuple[str, ...] = ("_heap", "_buckets", "_times", "_next_seq")
    #: Path prefixes below ``repro/`` that own the attributes.
    OWNERS: Tuple[Tuple[str, ...], ...] = (("sim",),)
    MESSAGE = (
        "access to scheduler internal .{attr}: same-instant bucket layout is "
        "backend-specific and shuffled under chaos; use the EventScheduler "
        "interface (push/pop/next_time) instead"
    )

    def applies_to(self, path: Path) -> bool:
        rest = _repro_parts(path)
        return bool(rest) and not any(rest[: len(o)] == o for o in self.OWNERS)

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if node.attr not in self.INTERNALS:
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue  # a class's own attribute, not the guarded one
            yield (node.lineno, self.MESSAGE.format(attr=node.attr))


class PlacementCursorRule(SchedulerInternalsRule):
    code = "DET010"
    title = "CNDB round-robin cursor touched outside the placement resolver"
    INTERNALS = ("_rr_cursor",)
    OWNERS = (("hardware",), ("coordinator", "resolver.py"))
    MESSAGE = (
        "access to the CNDB round-robin cursor .{attr}: it is placement "
        "state only the resolver's atomic walk (repro.coordinator.resolver) "
        "may save or rewind, or a failed deployment shifts every later "
        "placement"
    )


class HookNameFormatRule(LintRule):
    code = "DET008"
    title = "metric or resource name formatted inside a guarded hot hook"

    def applies_to(self, path: Path) -> bool:
        rest = _repro_parts(path)
        return bool(rest) and rest[0] in ("sim", "net", "engine")

    @staticmethod
    def _is_formatted(node: ast.AST) -> bool:
        """An f-string with a field, ``"..." % x`` or ``"...".format(x)``."""
        if isinstance(node, ast.JoinedStr):
            return any(isinstance(v, ast.FormattedValue) for v in node.values)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            template: ast.AST = node.left
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "format"):
            template = node.func.value
        else:
            return False
        return isinstance(template, ast.Constant) and isinstance(template.value, str)

    def _formatted(self, node: ast.AST) -> Iterable[ast.expr]:
        """Formatted strings under ``node``; the body of an ``if <x> is
        None:`` (the branch that binds once) is exempt."""
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) and (
            isinstance(node.test.ops[0], ast.Is)
            and isinstance(node.test.comparators[0], ast.Constant)
            and node.test.comparators[0].value is None
        ):
            children: Iterable[ast.AST] = node.orelse
        elif isinstance(node, ast.expr) and self._is_formatted(node):
            yield node
            return
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            yield from self._formatted(child)

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        seen: Set[Tuple[int, int]] = set()  # nested guards walk a statement twice
        for node in ast.walk(tree):
            if not (isinstance(node, ast.If) and ObsGuardRule._guards(node.test)):
                continue
            for stmt in node.body:
                for arg in self._formatted(stmt):
                    if (arg.lineno, arg.col_offset) not in seen:
                        seen.add((arg.lineno, arg.col_offset))
                        yield (
                            arg.lineno,
                            "name formatted inside an enabled-guarded hook, once "
                            "per event; resolve the instrument (or format the "
                            "label) once under `if ... is None:` and reuse it",
                        )

        # Sibling check: a generator that spawns a process on every pass
        # must not format its name there (only the tracer and the sanitizer
        # census ever read it).
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef) or not any(
                isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(func)
            ):
                continue
            for node in ast.walk(func):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "process"):
                    continue
                for keyword in node.keywords:
                    if keyword.arg == "name" and self._is_formatted(keyword.value):
                        yield (
                            keyword.value.lineno,
                            "process name formatted on every pass through a "
                            "generator body; format it once (per-item work "
                            "nobody joins needs no process: sim.detach)",
                        )


class EagerGrantWindowRule(LintRule):
    code = "DET009"
    title = "urgent event scheduled between creating a kernel event and waiting on it"

    #: ``(method, positional arguments)`` of the calls that may hand their
    #: event back already processed (sim.resources).
    CREATORS = {("request", 0), ("get", 0), ("put", 1)}
    #: Calls scheduling an *urgent* event, which a queued grant runs after:
    #: a process's ``Initialize``, the default start event of a callback
    #: chain (``Simulator.detach(step)``; given a start event it pushes
    #: nothing, which the rule does not look at), an interrupt.
    URGENT = ("process", "detach", "interrupt")

    applies_to = HookNameFormatRule.applies_to

    def _created(self, value: Optional[ast.AST], target: Optional[ast.AST]) -> Optional[str]:
        """The variable bound to a freshly created kernel event, if any."""
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
                and (value.func.attr, len(value.args)) in self.CREATORS
                and isinstance(target, ast.Name)):
            return target.id
        return None

    def check(self, tree: ast.Module, path: Path) -> Iterable[Tuple[int, str]]:
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            pending: Dict[str, int] = {}  # event variable -> line it was created on
            nodes = [n for n in ast.walk(func) if hasattr(n, "lineno")]
            for node in sorted(nodes, key=lambda n: (n.lineno, n.col_offset)):
                bound = []
                if isinstance(node, ast.Assign):
                    bound = [self._created(node.value, node.targets[0])]
                elif isinstance(node, ast.With):
                    bound = [self._created(i.context_expr, i.optional_vars) for i in node.items]
                elif isinstance(node, (ast.Yield, ast.Attribute)) and isinstance(
                    node.value, ast.Name
                ) and getattr(node, "attr", "callbacks") == "callbacks":
                    pending.pop(node.value.id, None)  # waited on, or guard-tested
                elif pending and isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ) and node.func.attr in self.URGENT:
                    name, line = next(iter(pending.items()))
                    yield (
                        node.lineno,
                        f".{node.func.attr}() between creating event {name!r} "
                        f"(line {line}) and waiting on it: a grant delivered "
                        "synchronously would overtake the urgent event a queued "
                        "grant runs after; yield (or guard-test) the event first",
                    )
                pending.update((name, node.lineno) for name in bound if name)


#: The rule registry, in execution (and documentation) order.
RULES: Tuple[LintRule, ...] = (
    BannedCallRule(
        "DET001", "wall-clock time source in simulation code", WALL_CLOCK_CALLS,
        "{call}() reads the wall clock; simulated time must come from sim.now",
    ),
    BannedCallRule(
        "DET002", "unseeded global randomness in simulation code", GLOBAL_RANDOM_CALLS,
        "{call}() consumes the global RNG; use a seeded random.Random(seed) instance",
    ),
    SetIterationRule(),
    SlotsRule(),
    ObsGuardRule(),
    ListenerLifecycleRule(),
    SchedulerInternalsRule(),
    HookNameFormatRule(),
    EagerGrantWindowRule(),
    PlacementCursorRule(),
)


def lint_file(path: Path, rules: Sequence[LintRule] = RULES) -> List[Diagnostic]:
    """Lint one Python file; returns findings (suppressions applied)."""
    source = path.read_text()
    file_wide, per_line = _parse_suppressions(source)
    tree = ast.parse(source, filename=str(path))
    findings: List[Diagnostic] = []
    for rule in rules:
        if not rule.applies_to(path) or rule.code in file_wide:
            continue
        for lineno, message in rule.check(tree, path):
            if rule.code in per_line.get(lineno, ()):
                continue
            findings.append(
                Diagnostic(
                    code=rule.code,
                    severity=Severity.ERROR,
                    message=message,
                    path=str(path),
                    line=lineno,
                )
            )
    findings.sort(key=lambda d: (d.path or "", d.line or 0, d.code))
    return findings


def _default_paths() -> List[Path]:
    """The whole ``repro`` package: per-rule ``applies_to`` scopes checks.

    Historically only the hot packages were walked; the everywhere-rules
    (``DET006``/``DET007``) widened the default to the full tree — the
    hot-path rules still restrict themselves via :data:`HOT_PACKAGES` /
    :data:`HOT_MODULES`.
    """
    return [Path(__file__).resolve().parent.parent]


def lint_paths(paths: Sequence[Path]) -> List[Diagnostic]:
    """Lint every ``*.py`` under the given files/directories."""
    findings: List[Diagnostic] = []
    for path in paths:
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                findings.extend(lint_file(file))
        else:
            findings.extend(lint_file(path))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Determinism/correctness lints for the simulation kernel.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: repro's sim/net/engine)",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    args = parser.parse_args(argv)
    paths = args.paths or _default_paths()
    findings = lint_paths(paths)
    if args.json:
        print(json.dumps([d.to_dict() for d in findings], indent=2))
    else:
        for finding in findings:
            print(finding.format())
        print(f"{len(findings)} finding(s) in {len(paths)} path(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
