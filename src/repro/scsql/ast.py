"""Abstract syntax of SCSQL.

The AST mirrors the shape of the paper's published queries.  A statement is
either a :class:`SelectQuery` or a :class:`CreateFunction`.  Select queries
have three clauses::

    select <expr>
    from   [bag of] <type> <name>, ...
    where  <var> = <expr> and <var> in <expr> and ...

Expression nodes are literals, variable references, function calls, set
expressions (``{a, b}``), and parenthesized nested select queries (the
subquery argument of ``spv``).  Nodes are frozen, slotted records
(:class:`~repro.util.record.Frozen`) that store their fields through the
slot setters, since the parser builds one per token.
"""

from __future__ import annotations

import enum
from typing import Optional, Set, Tuple, Union

from repro.util.record import Frozen, setters
from repro.util.source import Span


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr(Frozen):
    """Base class of SCSQL expressions."""

    __slots__ = ()

    def free_vars(self) -> Set[str]:
        """Names of variables this expression references (unbound)."""
        raise NotImplementedError


class Literal(Expr):
    """A number or string constant."""

    value: Union[int, float, str]
    __slots__ = ("value",)

    def __init__(self, value: Union[int, float, str]) -> None:
        _literal_value(self, value)

    def free_vars(self) -> Set[str]:
        return set()


class Var(Expr):
    """A reference to a declared variable or function parameter."""

    name: str
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        _var_name(self, name)

    def free_vars(self) -> Set[str]:
        return {self.name}


class FuncCall(Expr):
    """A function application, builtin or user-defined.

    ``span`` is the source position of the function name, attached by the
    parser; it identifies nodes but not their value (excluded from
    equality), and static-analysis diagnostics report it.
    """

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span]
    __slots__ = ("name", "args", "span")
    _uncompared = ("span",)

    def __init__(self, name: str, args: Tuple[Expr, ...], span: Optional[Span] = None) -> None:
        _func_call_name(self, name)
        _func_call_args(self, args)
        _func_call_span(self, span)

    def free_vars(self) -> Set[str]:
        names: Set[str] = set()
        for arg in self.args:
            names |= arg.free_vars()
        return names


class SetExpr(Expr):
    """A set/bag literal: ``{a, b}``."""

    items: Tuple[Expr, ...]
    __slots__ = ("items",)

    def __init__(self, items: Tuple[Expr, ...]) -> None:
        _set_expr_items(self, items)

    def free_vars(self) -> Set[str]:
        names: Set[str] = set()
        for item in self.items:
            names |= item.free_vars()
        return names


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------
class CondKind(enum.Enum):
    EQ = "="
    IN = "in"


class Decl(Frozen):
    """One ``from``-clause declaration: ``[bag of] <type> <name>``."""

    name: str
    type_name: str
    is_bag: bool
    __slots__ = ("name", "type_name", "is_bag")

    def __init__(self, name: str, type_name: str, is_bag: bool = False) -> None:
        _decl_name(self, name)
        _decl_type_name(self, type_name)
        _decl_is_bag(self, is_bag)


class Condition(Frozen):
    """One ``where``-clause conjunct: ``var = expr`` or ``var in expr``."""

    kind: CondKind
    var: str
    expr: Expr
    __slots__ = ("kind", "var", "expr")

    def __init__(self, kind: CondKind, var: str, expr: Expr) -> None:
        _condition_kind(self, kind)
        _condition_var(self, var)
        _condition_expr(self, expr)

    def free_vars(self) -> Set[str]:
        return self.expr.free_vars()


class SelectQuery(Expr):
    """A (possibly nested) select query.

    As an expression, a nested select denotes the bag of values of its
    select expression over all bindings of its iteration variables — the
    form ``spv`` consumes.
    """

    select: Expr
    decls: Tuple[Decl, ...]
    conditions: Tuple[Condition, ...]
    __slots__ = ("select", "decls", "conditions")

    def __init__(self, select: Expr, decls: Tuple[Decl, ...] = (),
                 conditions: Tuple[Condition, ...] = ()) -> None:
        _select_query_select(self, select)
        _select_query_decls(self, decls)
        _select_query_conditions(self, conditions)

    def declared_names(self) -> Set[str]:
        return {d.name for d in self.decls}

    def free_vars(self) -> Set[str]:
        inner = self.select.free_vars()
        for cond in self.conditions:
            inner |= cond.free_vars()
        return inner - self.declared_names()


# The parser builds one node per token: store through the slots.
_literal_value, = setters(Literal)
_var_name, = setters(Var)
_func_call_name, _func_call_args, _func_call_span = setters(FuncCall)
_set_expr_items, = setters(SetExpr)
_decl_name, _decl_type_name, _decl_is_bag = setters(Decl)
_condition_kind, _condition_var, _condition_expr = setters(Condition)
_select_query_select, _select_query_decls, _select_query_conditions = setters(SelectQuery)


class Param(Frozen):
    """One parameter of a user-defined query function."""

    name: str
    type_name: str
    __slots__ = ("name", "type_name")

    def __init__(self, name: str, type_name: str) -> None:
        self._set_fields(name, type_name)


class CreateFunction(Frozen):
    """``create function name(type arg, ...) -> type as select ...``."""

    name: str
    params: Tuple[Param, ...]
    return_type: str
    body: SelectQuery
    __slots__ = ("name", "params", "return_type", "body")

    def __init__(self, name: str, params: Tuple[Param, ...], return_type: str,
                 body: SelectQuery) -> None:
        self._set_fields(name, params, return_type, body)


Statement = Union[SelectQuery, CreateFunction]
