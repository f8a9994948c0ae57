"""Recursive-descent parser for SCSQL.

Grammar (the subset exercised by the paper plus user-defined functions)::

    statement   := select_query | create_function
    create_function
                := "create" "function" IDENT "(" [param ("," param)*] ")"
                   "->" IDENT "as" select_query
    param       := IDENT IDENT                      -- type name
    select_query:= "select" expr "from" decl ("," decl)*
                   ["where" condition ("and" condition)*]
    decl        := ["bag" "of"] IDENT IDENT         -- type name
    condition   := IDENT "=" expr | IDENT "in" expr
    expr        := literal | set_expr | nested_select | call_or_var
    call_or_var := IDENT ["(" [expr ("," expr)*] ")"]
    set_expr    := "{" expr ("," expr)* "}"
    nested_select := "(" select_query ")"

A trailing semicolon after a statement is accepted and ignored.
"""

from __future__ import annotations

from typing import List, Optional

from repro.scsql.ast import (
    CondKind,
    Condition,
    CreateFunction,
    Decl,
    Expr,
    FuncCall,
    Literal,
    Param,
    SelectQuery,
    SetExpr,
    Statement,
    Var,
)
from repro.scsql.lexer import Token, TokenKind, tokenize
from repro.util.errors import QueryParseError
from repro.util.source import Span

#: Types a from-clause may declare.  ``sp`` is the paper's stream-process
#: type; the rest are conventional scalar/stream types.
DECLARABLE_TYPES = frozenset(
    ["sp", "integer", "real", "string", "stream", "object", "charstring"]
)


def parse(text: str) -> Statement:
    """Parse one SCSQL statement.

    Raises:
        QueryParseError: On any syntax error, with source position.
    """
    return _Parser(tokenize(text)).parse_statement()


def parse_query(text: str) -> SelectQuery:
    """Parse a select query (rejecting ``create function``)."""
    statement = parse(text)
    if not isinstance(statement, SelectQuery):
        raise QueryParseError("expected a select query, got a function definition")
    return statement


_IDENT, _KEYWORD, _NUMBER, _STRING = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.STRING
)
_LPAREN, _RPAREN, _COMMA, _EQUALS = (
    TokenKind.LPAREN, TokenKind.RPAREN, TokenKind.COMMA, TokenKind.EQUALS
)


class _Parser:
    """Recursive descent over the token list, read by index (the END token
    closing every list matches no expected kind, so no read runs past it)."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    def _accept(self, kind: TokenKind, text: Optional[str] = None) -> Optional[Token]:
        token = self._tokens[self._pos]
        if token[0] is kind and (text is None or token[1] == text):
            self._pos += 1
            return token
        return None

    def _expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        token = self._tokens[self._pos]
        if token[0] is kind and (text is None or token[1] == text):
            self._pos += 1
            return token
        raise QueryParseError(
            f"expected {text or kind.value!r}, found {str(token) or 'end of input'!r}",
            token[2],
            token[3],
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        token = self._tokens[0]
        if token[0] is _KEYWORD and token[1] == "create":
            statement: Statement = self._create_function()
        else:
            statement = self._select_query()
        self._accept(TokenKind.SEMICOLON)
        end = self._tokens[self._pos]
        if end.kind is not TokenKind.END:
            raise QueryParseError(
                f"unexpected trailing input starting at {str(end)!r}", end.line, end.column
            )
        return statement

    def _create_function(self) -> CreateFunction:
        self._expect(_KEYWORD, "create")
        self._expect(_KEYWORD, "function")
        name = self._expect(_IDENT).text
        self._expect(_LPAREN)
        params: List[Param] = []
        if self._tokens[self._pos].kind is not _RPAREN:
            while True:
                type_name = self._expect(_IDENT).text
                param_name = self._expect(_IDENT).text
                params.append(Param(name=param_name, type_name=type_name))
                if not self._accept(_COMMA):
                    break
        self._expect(_RPAREN)
        self._expect(TokenKind.ARROW)
        return_type = self._expect(_IDENT).text
        self._expect(_KEYWORD, "as")
        body = self._select_query()
        return CreateFunction(
            name=name, params=tuple(params), return_type=return_type, body=body
        )

    # ------------------------------------------------------------------
    # Select queries
    # ------------------------------------------------------------------
    def _select_query(self) -> SelectQuery:
        self._expect(_KEYWORD, "select")
        select_expr = self._expr()
        self._expect(_KEYWORD, "from")
        decls = [self._decl()]
        while self._accept(_COMMA):
            decls.append(self._decl())
        conditions: List[Condition] = []
        if self._accept(_KEYWORD, "where"):
            conditions.append(self._condition())
            while self._accept(_KEYWORD, "and"):
                conditions.append(self._condition())
        return SelectQuery(select_expr, tuple(decls), tuple(conditions))

    def _decl(self) -> Decl:
        is_bag = False
        if self._accept(_KEYWORD, "bag"):
            self._expect(_KEYWORD, "of")
            is_bag = True
        type_token = self._expect(_IDENT)
        if type_token.text not in DECLARABLE_TYPES:
            raise QueryParseError(
                f"unknown type {type_token.text!r} in from clause",
                type_token.line,
                type_token.column,
            )
        name = self._expect(_IDENT).text
        return Decl(name, type_token.text, is_bag)

    def _condition(self) -> Condition:
        var = self._expect(_IDENT).text
        if self._accept(_EQUALS):
            return Condition(CondKind.EQ, var, self._expr())
        if self._accept(_KEYWORD, "in"):
            return Condition(CondKind.IN, var, self._expr())
        token = self._tokens[self._pos]
        raise QueryParseError(
            f"expected '=' or 'in' after {var!r}", token.line, token.column
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr(self) -> Expr:
        tokens = self._tokens
        pos = self._pos
        token = tokens[pos]
        kind = token[0]
        if kind is _IDENT:
            if tokens[pos + 1][0] is not _LPAREN:
                self._pos = pos + 1
                return Var(token[1])
            args: List[Expr] = []
            if tokens[pos + 2][0] is _RPAREN:
                self._pos = pos + 3
            else:
                self._pos = pos + 2
                while True:
                    args.append(self._expr())
                    pos = self._pos
                    if tokens[pos][0] is not _COMMA:
                        break
                    self._pos = pos + 1
                self._expect(_RPAREN)
            return FuncCall(token[1], tuple(args), Span(token[2], token[3]))
        if kind is _NUMBER:
            self._pos = pos + 1
            return Literal(token.value)
        if kind is _STRING:
            self._pos = pos + 1
            return Literal(token[1])
        if kind is TokenKind.LBRACE:
            return self._set_expr()
        if kind is _LPAREN:
            self._pos = pos + 1
            inner = self._select_query()
            self._expect(_RPAREN)
            return inner
        raise QueryParseError(
            f"expected an expression, found {str(token) or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _set_expr(self) -> SetExpr:
        self._expect(TokenKind.LBRACE)
        items = [self._expr()]
        while self._accept(_COMMA):
            items.append(self._expr())
        self._expect(TokenKind.RBRACE)
        return SetExpr(tuple(items))
