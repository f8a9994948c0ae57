"""The SCSQL compiler: from parsed queries to deployable process graphs.

Compilation follows the paper's two-level semantics:

* **Setup level** — the ``where`` clause of a query is a set of
  definitions.  ``v = expr`` binds a declared variable; definitions are
  evaluated in dependency order (the paper writes them in any order, e.g.
  ``c`` is defined after it is referenced in Query 1).  Calls to ``sp`` and
  ``spv`` are *special forms*: their subquery argument is compiled — not
  executed — into a plan, a stream process is registered in the query
  graph, and a handle is returned.
* **Stream level** — the select expression of every (sub)query is compiled
  into a :class:`~repro.engine.sqep.OpSpec` plan; ``extract(p)`` and
  ``merge(bag)`` become subscription leaves connecting plans across stream
  processes.

The compiler is deliberately permissive about *which* cluster things run in
and strict about variable binding, arity, and types of builtin calls, so a
malformed query fails at compile time with a :class:`QuerySemanticError`
rather than deadlocking the simulation.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.coordinator.allocation import (
    AllocationDirective,
    AllocationSequence,
    ExplicitNodesSpec,
    InPsetSpec,
    PsetRoundRobinSpec,
    UrrSpec,
)
from repro.coordinator.graph import QueryGraph, SPDef
from repro.engine.sqep import OpSpec, plan_input, plan_op
from repro.hardware.environment import DEFAULT_CLUSTERS
from repro.scsql.ast import (
    CondKind,
    Condition,
    CreateFunction,
    Expr,
    FuncCall,
    Literal,
    SelectQuery,
    SetExpr,
    Var,
)
from repro.scsql.handles import SPHandle, SPVHandle
from repro.scsql.scopes import Scope
from repro.util.errors import QuerySemanticError

#: Stream functions compiled 1:1 into unary plan operators.
_UNARY_STREAM_OPS = frozenset(
    ["count", "sum", "avg", "maxagg", "minagg", "fft", "odd", "even", "radixcombine", "relay"]
)


def _collect_stream_refs(node: Expr, refs: set) -> None:
    """Add to ``refs`` the variables ``node`` names as extract()/merge()
    targets (a module function: a closure that calls itself is a
    reference cycle)."""
    if isinstance(node, FuncCall):
        if node.name in ("extract", "merge"):
            for arg in node.args:
                if isinstance(arg, Var):
                    refs.add(arg.name)
                elif isinstance(arg, SetExpr):
                    for item in arg.items:
                        if isinstance(item, Var):
                            refs.add(item.name)
                else:
                    _collect_stream_refs(arg, refs)
        else:
            for arg in node.args:
                _collect_stream_refs(arg, refs)
    elif isinstance(node, SetExpr):
        for item in node.items:
            _collect_stream_refs(item, refs)
    elif isinstance(node, SelectQuery):
        for cond in node.conditions:
            _collect_stream_refs(cond.expr, refs)
        _collect_stream_refs(node.select, refs)


class FunctionDef:
    """A user-defined query function (``create function ... as select ...``)."""

    def __init__(self, definition: CreateFunction):
        self.definition = definition

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def arity(self) -> int:
        return len(self.definition.params)


class QueryCompiler:
    """Compiles one statement into an environment-independent query graph.

    Compilation is *setup-time only*: no live
    :class:`~repro.hardware.environment.Environment` is needed.  Cluster
    names are validated against the paper's fe/be/bg topology
    (:data:`~repro.hardware.environment.DEFAULT_CLUSTERS`, which every
    environment exposes), and allocation queries compile to symbolic
    :class:`~repro.coordinator.allocation.AllocationSpec` objects that a
    deployer resolves against a target environment's CNDBs at deploy time.
    The resulting graph is picklable and reusable across environments.
    """

    def __init__(self, functions: Optional[Dict[str, FunctionDef]] = None):
        self.functions = functions if functions is not None else {}
        self.graph = QueryGraph()
        self._sp_counter = itertools.count(1)
        self._name_hint: Optional[str] = None
        # Subqueries whose compilation is deferred until every definition of
        # the enclosing query is bound (the paper's queries freely reference
        # stream processes defined by later conjuncts).
        self._pending: List[Tuple[SPDef, Expr, Scope]] = []

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def compile_select(self, query: SelectQuery) -> QueryGraph:
        """Compile a top-level select query into a deployable graph."""
        scope = Scope()
        self._enter_query(query, scope)
        self._compile_pending()
        self.graph.root_plan = self.compile_stream(query.select, scope)
        self._compile_pending()
        self.graph.validate()
        return self.graph

    def _compile_pending(self) -> None:
        """Compile deferred stream-process subqueries (may enqueue more)."""
        while self._pending:
            sp_def, expr, scope = self._pending.pop(0)
            sp_def.plan = self.compile_stream(expr, scope)

    # ------------------------------------------------------------------
    # Query-clause evaluation
    # ------------------------------------------------------------------
    def _enter_query(self, query: SelectQuery, scope: Scope) -> None:
        """Declare the from-clause variables and evaluate the definitions."""
        for decl in query.decls:
            scope.declare(decl.name)
        eq_conditions = [c for c in query.conditions if c.kind is CondKind.EQ]
        in_conditions = [c for c in query.conditions if c.kind is CondKind.IN]
        if in_conditions:
            names = ", ".join(c.var for c in in_conditions)
            raise QuerySemanticError(
                f"iteration over {names} is only supported inside the subquery "
                "argument of spv(); the top level of a query binds single values"
            )
        for condition in self._ordered(eq_conditions, query):
            self._name_hint = condition.var
            value = self.eval_setup(condition.expr, scope)
            self._name_hint = None
            scope.bind(condition.var, value)

    def _ordered(self, conditions: Sequence[Condition], query: SelectQuery) -> List[Condition]:
        """Topologically order definitions by their variable dependencies.

        A definition may reference variables defined by *later* conjuncts
        (the paper's Query 1 defines c before b); cycles are rejected —
        with one relaxation: a reference to a variable bound to a stream
        process is not a setup-time dependency when it only appears under
        ``extract``/``merge`` inside an ``sp`` subquery, because those are
        resolved to subscription edges at wiring time.  That is exactly the
        radix2 pattern (a extracts from c, c is defined later), so the
        dependency analysis ignores references that occur inside the
        *deferred* first argument of sp()/spv().
        """
        declared = query.declared_names()
        deps: Dict[str, set] = {}
        by_var: Dict[str, Condition] = {}
        for condition in conditions:
            if condition.var not in declared:
                raise QuerySemanticError(
                    f"condition defines {condition.var!r}, which is not declared "
                    "in the from clause"
                )
            if condition.var in by_var:
                raise QuerySemanticError(f"variable {condition.var!r} defined twice")
            by_var[condition.var] = condition
            deps[condition.var] = self._setup_dependencies(condition.expr) & declared
        ordered: List[Condition] = []
        resolved: set = set()
        while deps:
            ready = [v for v, d in deps.items() if d <= resolved]
            if not ready:
                cycle = ", ".join(sorted(deps))
                raise QuerySemanticError(
                    f"cyclic definitions among variables: {cycle}"
                )
            for var in sorted(ready):
                ordered.append(by_var[var])
                resolved.add(var)
                del deps[var]
        return ordered

    def _setup_dependencies(self, expr: Expr) -> set:
        """Free variables of ``expr`` that must be bound before evaluating it.

        The first argument of sp()/spv() is deferred: stream-process
        references inside it become subscription edges, not setup reads.
        Its remaining arguments (cluster, allocation sequence) are evaluated
        eagerly and do contribute dependencies.
        """
        if isinstance(expr, FuncCall) and expr.name in ("sp", "spv") and expr.args:
            # Variables the subquery reads at setup time (e.g. n in iota(1,n))
            # are still real dependencies; only extract/merge targets defer.
            eager = expr.args[0].free_vars()
            if eager:
                refs: set = set()
                _collect_stream_refs(expr.args[0], refs)
                eager -= refs
            for arg in expr.args[1:]:
                eager |= arg.free_vars()
            return eager
        return expr.free_vars()

    # ------------------------------------------------------------------
    # Setup-level evaluation
    # ------------------------------------------------------------------
    def eval_setup(self, expr: Expr, scope: Scope) -> Any:
        """Evaluate an expression to a setup-time value."""
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, FuncCall):
            return self._eval_setup_call(expr, scope)
        if isinstance(expr, Var):
            return scope.lookup(expr.name)
        if isinstance(expr, SetExpr):
            return [self.eval_setup(item, scope) for item in expr.items]
        if isinstance(expr, SelectQuery):
            return [
                self.eval_setup(expr.select, binding)
                for binding in self._enumerate_bindings(expr, scope)
            ]
        raise QuerySemanticError(f"cannot evaluate {type(expr).__name__} at setup time")

    def _eval_setup_call(self, call: FuncCall, scope: Scope) -> Any:
        name = call.name
        if name == "sp":
            return self._make_sp(call, scope)
        if name == "spv":
            return self._make_spv(call, scope)
        if name == "iota":
            low, high = self._eval_args(call, scope, 2, "iota")
            self._require_int(low, "iota"), self._require_int(high, "iota")
            return list(range(int(low), int(high) + 1))
        if name == "filename":
            from repro.workloads.corpus import filename

            (index,) = self._eval_args(call, scope, 1, "filename")
            return filename(self._require_int(index, "filename"))
        if name in ("urr", "inPset", "psetrr"):
            # Allocation queries are position-dependent: they are resolved
            # against the target cluster by the enclosing sp()/spv() call.
            raise QuerySemanticError(
                f"{name}() is an allocation sequence query; it may only appear "
                "as the third argument of sp() or spv()"
            )
        raise QuerySemanticError(
            f"unknown function {name!r} in a setup-level expression"
        )

    def _eval_args(self, call: FuncCall, scope: Scope, arity: int, name: str) -> List[Any]:
        if len(call.args) != arity:
            raise QuerySemanticError(
                f"{name}() takes {arity} argument(s), got {len(call.args)}"
            )
        return [self.eval_setup(arg, scope) for arg in call.args]

    @staticmethod
    def _require_int(value: Any, fn: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise QuerySemanticError(f"{fn}() needs an integer, got {value!r}")
        return value

    @staticmethod
    def _require_str(value: Any, fn: str) -> str:
        if not isinstance(value, str):
            raise QuerySemanticError(f"{fn}() needs a string, got {value!r}")
        return value

    # ------------------------------------------------------------------
    # Stream processes (the sp / spv special forms)
    # ------------------------------------------------------------------
    def _fresh_sp_id(self, hint: Optional[str] = None) -> str:
        count = next(self._sp_counter)
        base = hint or self._name_hint or "sp"
        return f"{base}@{count}"

    def _make_sp(self, call: FuncCall, scope: Scope) -> SPHandle:
        if not 2 <= len(call.args) <= 3:
            raise QuerySemanticError(
                f"sp(subquery, cluster[, allocation]) takes 2 or 3 arguments, "
                f"got {len(call.args)}"
            )
        cluster = self._require_str(self.eval_setup(call.args[1], scope), "sp")
        self._check_cluster(cluster)
        allocation = self._allocation(call.args[2], scope, cluster) if len(call.args) == 3 else None
        sp_id = self._fresh_sp_id()
        sp_def = SPDef(sp_id=sp_id, cluster=cluster, allocation=allocation, span=call.span)
        self.graph.add(sp_def)
        self._pending.append((sp_def, call.args[0], scope))
        return SPHandle(sp_id)

    def _make_spv(self, call: FuncCall, scope: Scope) -> SPVHandle:
        if not 2 <= len(call.args) <= 3:
            raise QuerySemanticError(
                f"spv(subqueries, cluster[, allocation]) takes 2 or 3 arguments, "
                f"got {len(call.args)}"
            )
        cluster = self._require_str(self.eval_setup(call.args[1], scope), "spv")
        self._check_cluster(cluster)
        allocation = (
            self._allocation(call.args[2], scope, cluster) if len(call.args) == 3 else None
        )
        hint = self._name_hint
        subquery = call.args[0]
        if isinstance(subquery, SelectQuery):
            members: List[Tuple[Expr, Scope]] = [
                (subquery.select, binding)
                for binding in self._enumerate_bindings(subquery, scope)
            ]
        elif isinstance(subquery, SetExpr):
            members = [(item, scope) for item in subquery.items]
        else:
            raise QuerySemanticError(
                "the first argument of spv() must be a parenthesized select "
                "query or a set expression of subqueries"
            )
        handles = []
        for index, (expr, member_scope) in enumerate(members):
            sp_id = self._fresh_sp_id(f"{hint}[{index}]" if hint else None)
            sp_def = SPDef(
                sp_id=sp_id, cluster=cluster, allocation=allocation, span=call.span
            )
            self.graph.add(sp_def)
            self._pending.append((sp_def, expr, member_scope))
            handles.append(SPHandle(sp_id))
        return SPVHandle(tuple(handles))

    def _enumerate_bindings(self, query: SelectQuery, scope: Scope) -> List[Scope]:
        """All binding scopes of a nested, possibly iterating, select query.

        Equality definitions are evaluated once (in dependency order);
        ``in`` conditions iterate, producing the cartesian product of their
        domains — ``from integer i where i in iota(1,n)`` yields n scopes.
        """
        base = scope.child()
        for decl in query.decls:
            base.declare(decl.name)
        eq_conditions = [c for c in query.conditions if c.kind is CondKind.EQ]
        in_conditions = [c for c in query.conditions if c.kind is CondKind.IN]
        for condition in self._ordered(eq_conditions, query):
            base.bind(condition.var, self.eval_setup(condition.expr, scope))
        if not in_conditions:
            return [base]
        domains: List[Tuple[str, List[Any]]] = []
        iterated: set = set()
        for condition in in_conditions:
            if condition.var not in query.declared_names():
                raise QuerySemanticError(
                    f"iteration variable {condition.var!r} is not declared"
                )
            if condition.var in iterated:
                raise QuerySemanticError(
                    f"iteration variable {condition.var!r} has two 'in' conditions"
                )
            iterated.add(condition.var)
            domain = self.eval_setup(condition.expr, base)
            if isinstance(domain, SPVHandle):
                domain = list(domain)
            if not isinstance(domain, list):
                raise QuerySemanticError(
                    f"'{condition.var} in ...' needs a bag to iterate over, "
                    f"got {type(domain).__name__}"
                )
            domains.append((condition.var, domain))
        scopes: List[Scope] = []
        names = [name for name, _ in domains]
        for combo in itertools.product(*[values for _, values in domains]):
            bound = base.child()
            for name, value in zip(names, combo):
                bound.bind(name, value)
            scopes.append(bound)
        return scopes

    def _check_cluster(self, cluster: str) -> None:
        if cluster not in DEFAULT_CLUSTERS:
            raise QuerySemanticError(
                f"unknown cluster {cluster!r}; this environment has "
                f"{sorted(DEFAULT_CLUSTERS)}"
            )

    # ------------------------------------------------------------------
    # Allocation sequences
    # ------------------------------------------------------------------
    def _allocation(self, expr: Expr, scope: Scope, cluster: str) -> AllocationDirective:
        """Compile the third argument of sp()/spv() for ``cluster``.

        Allocation queries compile to symbolic specs resolved against the
        deployment environment's CNDBs by the deployer, so a compiled plan
        stays environment-independent (and picklable).
        """
        if isinstance(expr, FuncCall):
            if expr.name == "urr":
                (name,) = self._eval_args(expr, scope, 1, "urr")
                return UrrSpec(self._require_str(name, "urr"))
            if expr.name == "inPset":
                (pset,) = self._eval_args(expr, scope, 1, "inPset")
                return InPsetSpec(cluster, self._require_int(pset, "inPset"))
            if expr.name == "psetrr":
                self._eval_args(expr, scope, 0, "psetrr")
                return PsetRoundRobinSpec(cluster)
        value = self.eval_setup(expr, scope)
        if isinstance(value, AllocationSequence):
            return value
        if isinstance(value, bool):
            raise QuerySemanticError(f"invalid allocation sequence {value!r}")
        if isinstance(value, int):
            return ExplicitNodesSpec((value,))
        if isinstance(value, list) and value and all(
            isinstance(v, int) and not isinstance(v, bool) for v in value
        ):
            return ExplicitNodesSpec(tuple(value))
        raise QuerySemanticError(
            f"allocation sequences are node numbers, node-number bags, or "
            f"allocation queries; got {value!r}"
        )

    # ------------------------------------------------------------------
    # Stream-level compilation
    # ------------------------------------------------------------------
    def compile_stream(self, expr: Expr, scope: Scope) -> OpSpec:
        """Compile an expression into a stream plan."""
        if isinstance(expr, FuncCall):
            return self._compile_stream_call(expr, scope)
        if isinstance(expr, Literal):
            return plan_op("constant", expr.value)
        if isinstance(expr, Var):
            value = scope.lookup(expr.name)
            return self._lift(value, expr.name)
        if isinstance(expr, SelectQuery):
            bindings = self._enumerate_bindings(expr, scope)
            if len(bindings) != 1:
                raise QuerySemanticError(
                    "an iterating select denotes a bag of streams; wrap it in "
                    "spv() and merge() to use it as one stream"
                )
            return self.compile_stream(expr.select, bindings[0])
        if isinstance(expr, SetExpr):
            raise QuerySemanticError(
                "a set expression is not a stream; did you mean merge({...})?"
            )
        raise QuerySemanticError(f"cannot compile {type(expr).__name__} as a stream")

    def _lift(self, value: Any, label: str) -> OpSpec:
        """Turn a setup value into a stream plan where that makes sense."""
        if isinstance(value, OpSpec):
            return value
        if isinstance(value, SPHandle):
            return plan_input(value.sp_id)
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            return plan_op("constant", value)
        raise QuerySemanticError(
            f"{label!r} (a {type(value).__name__}) cannot be used as a stream; "
            "stream-process bags need merge(), scalars need streamof()"
        )

    def _compile_stream_call(self, call: FuncCall, scope: Scope) -> OpSpec:
        name = call.name
        if name == "extract":
            (value,) = self._eval_args(call, scope, 1, "extract")
            if isinstance(value, SPVHandle):
                raise QuerySemanticError(
                    "extract() takes one stream process; use merge() for a bag"
                )
            if not isinstance(value, SPHandle):
                raise QuerySemanticError(
                    f"extract() needs a stream process, got {type(value).__name__}"
                )
            return plan_input(value.sp_id)
        if name == "merge":
            (value,) = self._eval_args(call, scope, 1, "merge")
            handles = self._as_handle_bag(value)
            children = tuple(plan_input(h.sp_id) for h in handles)
            return plan_op("merge", children=children)
        if name == "streamof":
            if len(call.args) != 1:
                raise QuerySemanticError("streamof() takes exactly one argument")
            # streamof() lifts any expression to a stream; compiled plans
            # already produce streams, so this is the identity at plan level.
            return self.compile_stream(call.args[0], scope)
        if name in _UNARY_STREAM_OPS:
            if len(call.args) != 1:
                raise QuerySemanticError(f"{name}() takes exactly one argument")
            child = self.compile_stream(call.args[0], scope)
            return plan_op(name, children=(child,))
        if name == "gen_array":
            nbytes, count = self._eval_args(call, scope, 2, "gen_array")
            return plan_op(
                "gen_array",
                self._require_int(nbytes, "gen_array"),
                self._require_int(count, "gen_array"),
            )
        if name == "iota":
            low, high = self._eval_args(call, scope, 2, "iota")
            return plan_op(
                "iota", self._require_int(low, "iota"), self._require_int(high, "iota")
            )
        if name == "receiver":
            (source,) = self._eval_args(call, scope, 1, "receiver")
            return plan_op("receiver", self._require_str(source, "receiver"))
        if name == "grep":
            pattern, file_name = self._eval_args(call, scope, 2, "grep")
            return plan_op(
                "grep",
                self._require_str(pattern, "grep"),
                self._require_str(file_name, "grep"),
            )
        if name == "first":
            if len(call.args) != 2:
                raise QuerySemanticError("first(stream, n) takes exactly 2 arguments")
            child = self.compile_stream(call.args[0], scope)
            limit = self._require_int(self.eval_setup(call.args[1], scope), "first")
            return plan_op("first", limit, children=(child,))
        if name in ("above", "below"):
            if len(call.args) != 2:
                raise QuerySemanticError(f"{name}(stream, x) takes exactly 2 arguments")
            child = self.compile_stream(call.args[0], scope)
            threshold = self.eval_setup(call.args[1], scope)
            if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
                raise QuerySemanticError(f"{name}() needs a numeric threshold")
            return plan_op(name, threshold, children=(child,))
        if name == "sample":
            if len(call.args) != 2:
                raise QuerySemanticError("sample(stream, k) takes exactly 2 arguments")
            child = self.compile_stream(call.args[0], scope)
            every = self._require_int(self.eval_setup(call.args[1], scope), "sample")
            return plan_op("sample", every, children=(child,))
        if name == "groupwin":
            if len(call.args) != 5:
                raise QuerySemanticError(
                    "groupwin(stream, fn, size, keyidx, validx) takes 5 arguments"
                )
            child = self.compile_stream(call.args[0], scope)
            fn = self._require_str(self.eval_setup(call.args[1], scope), "groupwin")
            size = self._require_int(self.eval_setup(call.args[2], scope), "groupwin")
            key_index = self._require_int(self.eval_setup(call.args[3], scope), "groupwin")
            value_index = self._require_int(self.eval_setup(call.args[4], scope), "groupwin")
            return plan_op("groupwin", fn, size, key_index, value_index, children=(child,))
        if name == "winagg":
            if len(call.args) not in (3, 4):
                raise QuerySemanticError(
                    "winagg(stream, fn, size[, slide]) takes 3 or 4 arguments"
                )
            child = self.compile_stream(call.args[0], scope)
            fn = self._require_str(self.eval_setup(call.args[1], scope), "winagg")
            size = self._require_int(self.eval_setup(call.args[2], scope), "winagg")
            slide = (
                self._require_int(self.eval_setup(call.args[3], scope), "winagg")
                if len(call.args) == 4
                else 1
            )
            return plan_op("window", fn, size, slide, children=(child,))
        if name in ("sp", "spv"):
            raise QuerySemanticError(
                f"{name}() creates a stream process, not a stream; bind it to a "
                "variable and extract()/merge() it"
            )
        if name in self.functions:
            return self._apply_function(self.functions[name], call, scope)
        raise QuerySemanticError(f"unknown function {name!r} in a stream expression")

    @staticmethod
    def _as_handle_bag(value: Any) -> List[SPHandle]:
        if isinstance(value, SPVHandle):
            handles = list(value)
        elif isinstance(value, SPHandle):
            handles = [value]
        elif isinstance(value, list):
            handles = value
        else:
            raise QuerySemanticError(
                f"merge() needs a bag of stream processes, got {type(value).__name__}"
            )
        if not handles:
            raise QuerySemanticError("merge() over an empty bag of stream processes")
        for handle in handles:
            if not isinstance(handle, SPHandle):
                raise QuerySemanticError(
                    f"merge() bag contains a {type(handle).__name__}, "
                    "expected stream processes"
                )
        return handles

    # ------------------------------------------------------------------
    # User-defined query functions
    # ------------------------------------------------------------------
    def _apply_function(self, function: FunctionDef, call: FuncCall, scope: Scope) -> OpSpec:
        definition = function.definition
        if len(call.args) != function.arity:
            raise QuerySemanticError(
                f"{function.name}() takes {function.arity} argument(s), "
                f"got {len(call.args)}"
            )
        # Function bodies see only their parameters (no dynamic scoping).
        body_scope = Scope()
        for param, arg in zip(definition.params, call.args):
            if param.type_name == "stream":
                value: Any = self.compile_stream(arg, scope)
            else:
                value = self.eval_setup(arg, scope)
            body_scope.bind(param.name, value)
        body = definition.body
        inner = body_scope.child()
        self._enter_query(body, inner)
        return self.compile_stream(body.select, inner)
