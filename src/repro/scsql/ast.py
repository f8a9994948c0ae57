"""Abstract syntax of SCSQL.

The AST mirrors the shape of the paper's published queries.  A statement is
either a :class:`SelectQuery` or a :class:`CreateFunction`.  Select queries
have three clauses::

    select <expr>
    from   [bag of] <type> <name>, ...
    where  <var> = <expr> and <var> in <expr> and ...

Expression nodes are literals, variable references, function calls, set
expressions (``{a, b}``), and parenthesized nested select queries (the
subquery argument of ``spv``).  Nodes are frozen, slotted dataclasses
built by :func:`~repro.util.frozen.slot_init`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Set, Tuple, Union

from repro.util.frozen import slot_init
from repro.util.source import Span


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class of SCSQL expressions."""

    __slots__ = ()

    def free_vars(self) -> Set[str]:
        """Names of variables this expression references (unbound)."""
        raise NotImplementedError


@slot_init
@dataclass(frozen=True, slots=True)
class Literal(Expr):
    """A number or string constant."""

    value: Union[int, float, str]

    def free_vars(self) -> Set[str]:
        return set()


@slot_init
@dataclass(frozen=True, slots=True)
class Var(Expr):
    """A reference to a declared variable or function parameter."""

    name: str

    def free_vars(self) -> Set[str]:
        return {self.name}


@slot_init
@dataclass(frozen=True, slots=True)
class FuncCall(Expr):
    """A function application, builtin or user-defined.

    ``span`` is the source position of the function name, attached by the
    parser; it identifies nodes but not their value (excluded from
    equality), and static-analysis diagnostics report it.
    """

    name: str
    args: Tuple[Expr, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def free_vars(self) -> Set[str]:
        names: Set[str] = set()
        for arg in self.args:
            names |= arg.free_vars()
        return names


@slot_init
@dataclass(frozen=True, slots=True)
class SetExpr(Expr):
    """A set/bag literal: ``{a, b}``."""

    items: Tuple[Expr, ...]

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


@slot_init
@dataclass(frozen=True, slots=True)
class Decl:
    """One ``from``-clause declaration: ``[bag of] <type> <name>``."""

    name: str
    type_name: str
    is_bag: bool = False


@slot_init
@dataclass(frozen=True, slots=True)
class Condition:
    """One ``where``-clause conjunct: ``var = expr`` or ``var in expr``."""

    kind: CondKind
    var: str
    expr: Expr

    def free_vars(self) -> Set[str]:
        return self.expr.free_vars()


@slot_init
@dataclass(frozen=True, slots=True)
class SelectQuery(Expr):
    """A (possibly nested) select query.

    As an expression, a nested select denotes the bag of values of its
    select expression over all bindings of its iteration variables — the
    form ``spv`` consumes.
    """

    select: Expr
    decls: Tuple[Decl, ...] = ()
    conditions: Tuple[Condition, ...] = ()

    def declared_names(self) -> Set[str]:
        return {d.name for d in self.decls}

    def free_vars(self) -> Set[str]:
        inner = self.select.free_vars()
        for cond in self.conditions:
            inner |= cond.free_vars()
        return inner - self.declared_names()


@dataclass(frozen=True)
class Param:
    """One parameter of a user-defined query function."""

    name: str
    type_name: str


@dataclass(frozen=True)
class CreateFunction:
    """``create function name(type arg, ...) -> type as select ...``."""

    name: str
    params: Tuple[Param, ...]
    return_type: str
    body: SelectQuery


Statement = Union[SelectQuery, CreateFunction]
