"""SCSQL: the stream query language of SCSQ.

The pipeline: :mod:`repro.scsql.lexer` tokenizes, :mod:`repro.scsql.parser`
builds the AST, :mod:`repro.scsql.compiler` evaluates the setup level
(stream-process creation, allocation sequences) and compiles the stream
level into execution plans, and :class:`repro.scsql.session.SCSQSession`
runs the result on a simulated environment.

The unparser is imported from :mod:`repro.scsql.unparse`, whose name a
lazy re-export of its function would clash with.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "tokenize",
    "Token",
    "TokenKind",
    "parse",
    "parse_query",
    "QueryCompiler",
    "FunctionDef",
    "DeploymentPlan",
    "compile_plan",
    "SCSQSession",
    "SPHandle",
    "SPVHandle",
    "Scope",
    "CondKind",
    "Condition",
    "CreateFunction",
    "Decl",
    "Expr",
    "FuncCall",
    "Literal",
    "Param",
    "SelectQuery",
    "SetExpr",
    "Var",
]

__getattr__ = lazy_exports(__name__, {
    "repro.scsql.ast": (
        "CondKind", "Condition", "CreateFunction", "Decl", "Expr", "FuncCall", "Literal", "Param",
        "SelectQuery", "SetExpr", "Var",
    ),
    "repro.scsql.compiler": ("FunctionDef", "QueryCompiler"),
    "repro.scsql.handles": ("SPHandle", "SPVHandle"),
    "repro.scsql.lexer": ("Token", "TokenKind", "tokenize"),
    "repro.scsql.parser": ("parse", "parse_query"),
    "repro.scsql.plan": ("DeploymentPlan", "compile_plan"),
    "repro.scsql.scopes": ("Scope",),
    "repro.scsql.session": ("SCSQSession",),
})
