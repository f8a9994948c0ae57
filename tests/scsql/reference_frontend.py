"""The SCSQL front end as it was before the compiled-pattern lexer: a test oracle.

``tests/scsql/test_text_fuzz.py`` runs every generated text through this
character-loop lexer and recursive-descent parser and through
:mod:`repro.scsql`, and requires the same tokens, ASTs and errors.  Below
the imports, the code is ``repro/scsql/lexer.py`` followed by
``repro/scsql/parser.py`` as they stood then, verbatim; only the two import
blocks are merged (the parser reads the lexer above instead of importing
it).  It builds the production AST classes, so ASTs compare with ``==``.
Do not edit it to follow the production front end: it is the reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, Optional

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
from repro.util.errors import QueryParseError
from repro.util.source import Span

KEYWORDS = frozenset(
    [
        "select",
        "from",
        "where",
        "and",
        "in",
        "bag",
        "of",
        "create",
        "function",
        "as",
    ]
)


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    SEMICOLON = ";"
    EQUALS = "="
    ARROW = "->"
    END = "end"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def value(self) -> float:
        """The literal value of a NUMBER token (int if integral)."""
        if self.kind is not TokenKind.NUMBER:
            raise QueryParseError(f"token {self.text!r} is not a number", self.line, self.column)
        if any(c in self.text for c in ".eE"):
            return float(self.text)
        return int(self.text)

    def __str__(self) -> str:
        return self.text or self.kind.value


_SINGLE_CHAR = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMICOLON,
    "=": TokenKind.EQUALS,
}


def tokenize(text: str) -> List[Token]:
    """Tokenize SCSQL source text.

    Raises:
        QueryParseError: On unterminated strings or unexpected characters.
    """
    return list(_tokens(text))


def _tokens(text: str) -> Iterator[Token]:
    line, column = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            column += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":
            # SQL-style line comment.
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_column = line, column
        if ch == "-" and text[i : i + 2] == "->":
            yield Token(TokenKind.ARROW, "->", start_line, start_column)
            i += 2
            column += 2
            continue
        if ch in _SINGLE_CHAR:
            yield Token(_SINGLE_CHAR[ch], ch, start_line, start_column)
            i += 1
            column += 1
            continue
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\n":
                    raise QueryParseError("unterminated string literal", start_line, start_column)
                j += 1
            if j >= n:
                raise QueryParseError("unterminated string literal", start_line, start_column)
            yield Token(TokenKind.STRING, text[i + 1 : j], start_line, start_column)
            column += j + 1 - i
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1 if ch == "-" else i
            while j < n and (text[j].isdigit() or text[j] in ".eE"):
                if text[j] in "eE" and j + 1 < n and text[j + 1] in "+-":
                    j += 1
                j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise QueryParseError(f"bad number literal {lexeme!r}", start_line, start_column)
            yield Token(TokenKind.NUMBER, lexeme, start_line, start_column)
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = TokenKind.KEYWORD if word.lower() in KEYWORDS else TokenKind.IDENT
            lexeme = word.lower() if kind is TokenKind.KEYWORD else word
            yield Token(kind, lexeme, start_line, start_column)
            column += j - i
            i = j
            continue
        raise QueryParseError(f"unexpected character {ch!r}", start_line, start_column)
    yield Token(TokenKind.END, "", line, column)


# ----------------------------------------------------------------------
# repro/scsql/parser.py
# ----------------------------------------------------------------------
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


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------
    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        if token.kind is not TokenKind.END:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind, text: Optional[str] = None) -> bool:
        token = self._current
        return token.kind is kind and (text is None or token.text == text)

    def _accept(self, kind: TokenKind, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, text: Optional[str] = None) -> Token:
        if not self._check(kind, text):
            token = self._current
            wanted = text or kind.value
            raise QueryParseError(
                f"expected {wanted!r}, found {str(token) or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self) -> Statement:
        if self._check(TokenKind.KEYWORD, "create"):
            statement: Statement = self._create_function()
        else:
            statement = self._select_query()
        self._accept(TokenKind.SEMICOLON)
        end = self._current
        if end.kind is not TokenKind.END:
            raise QueryParseError(
                f"unexpected trailing input starting at {str(end)!r}", end.line, end.column
            )
        return statement

    def _create_function(self) -> CreateFunction:
        self._expect(TokenKind.KEYWORD, "create")
        self._expect(TokenKind.KEYWORD, "function")
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.LPAREN)
        params: List[Param] = []
        if not self._check(TokenKind.RPAREN):
            while True:
                type_name = self._expect(TokenKind.IDENT).text
                param_name = self._expect(TokenKind.IDENT).text
                params.append(Param(name=param_name, type_name=type_name))
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.ARROW)
        return_type = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.KEYWORD, "as")
        body = self._select_query()
        return CreateFunction(
            name=name, params=tuple(params), return_type=return_type, body=body
        )

    # ------------------------------------------------------------------
    # Select queries
    # ------------------------------------------------------------------
    def _select_query(self) -> SelectQuery:
        self._expect(TokenKind.KEYWORD, "select")
        select_expr = self._expr()
        self._expect(TokenKind.KEYWORD, "from")
        decls = [self._decl()]
        while self._accept(TokenKind.COMMA):
            decls.append(self._decl())
        conditions: List[Condition] = []
        if self._accept(TokenKind.KEYWORD, "where"):
            conditions.append(self._condition())
            while self._accept(TokenKind.KEYWORD, "and"):
                conditions.append(self._condition())
        return SelectQuery(
            select=select_expr, decls=tuple(decls), conditions=tuple(conditions)
        )

    def _decl(self) -> Decl:
        is_bag = False
        if self._accept(TokenKind.KEYWORD, "bag"):
            self._expect(TokenKind.KEYWORD, "of")
            is_bag = True
        type_token = self._expect(TokenKind.IDENT)
        if type_token.text not in DECLARABLE_TYPES:
            raise QueryParseError(
                f"unknown type {type_token.text!r} in from clause",
                type_token.line,
                type_token.column,
            )
        name = self._expect(TokenKind.IDENT).text
        return Decl(name=name, type_name=type_token.text, is_bag=is_bag)

    def _condition(self) -> Condition:
        var = self._expect(TokenKind.IDENT).text
        if self._accept(TokenKind.EQUALS):
            return Condition(kind=CondKind.EQ, var=var, expr=self._expr())
        if self._accept(TokenKind.KEYWORD, "in"):
            return Condition(kind=CondKind.IN, var=var, expr=self._expr())
        token = self._current
        raise QueryParseError(
            f"expected '=' or 'in' after {var!r}", token.line, token.column
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _expr(self) -> Expr:
        token = self._current
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return Literal(token.value)
        if token.kind is TokenKind.STRING:
            self._advance()
            return Literal(token.text)
        if token.kind is TokenKind.LBRACE:
            return self._set_expr()
        if token.kind is TokenKind.LPAREN:
            self._advance()
            inner = self._select_query()
            self._expect(TokenKind.RPAREN)
            return inner
        if token.kind is TokenKind.IDENT:
            self._advance()
            if self._accept(TokenKind.LPAREN):
                args: List[Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self._expr())
                        if not self._accept(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN)
                return FuncCall(
                    name=token.text,
                    args=tuple(args),
                    span=Span(token.line, token.column),
                )
            return Var(name=token.text)
        raise QueryParseError(
            f"expected an expression, found {str(token) or 'end of input'!r}",
            token.line,
            token.column,
        )

    def _set_expr(self) -> SetExpr:
        self._expect(TokenKind.LBRACE)
        items = [self._expr()]
        while self._accept(TokenKind.COMMA):
            items.append(self._expr())
        self._expect(TokenKind.RBRACE)
        return SetExpr(items=tuple(items))
