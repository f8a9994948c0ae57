"""Tokenizer for SCSQL.

SCSQL is "a query language similar to SQL, but extended with streams and
stream processes as first-class objects" (paper section 2.4).  The token
set covers the paper's published queries: identifiers, integer/real
literals, single-quoted strings, keywords, and the punctuation of function
calls, set expressions, and ``create function`` signatures (``->``).

Keywords are case-insensitive, as in SQL; identifiers keep their case.
The lexical rules, Unicode classes included, are listed in docs/scsql.md;
one compiled pattern implements them, one match per token.
"""

import enum
import re
from typing import List, NamedTuple

from repro.util.errors import QueryParseError

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


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    @property
    def value(self) -> float:
        """The literal value of a NUMBER token (int if integral)."""
        if self.kind is not TokenKind.NUMBER:
            raise QueryParseError(f"token {self.text!r} is not a number", self.line, self.column)
        text = self.text
        if "." in text or "e" in text or "E" in text:
            return float(text)
        return int(text)

    def __str__(self) -> str:
        return self.text or self.kind.value


# One match per token (rules in docs/scsql.md): group 1 is the whitespace
# (``\s``, ``str.isspace``) and comments before it.  What ``\d`` / ``\w``
# (``str.isdecimal`` / ``str.isalnum``) cannot decide, and every character
# that starts no token, lands in group 6 for ``_other``; END fills no group.
_PATTERN = re.compile(
    r"""
    ( \s* (?: --[^\n]*(?=\n) \s* )* )
    (?:
        ( [A-Za-z_]\w* )                                 # 2 identifier or keyword
      | ( [(){},;=] | -> )                              # 3 punctuation
      | ( '[^'\n]*' )                                   # 4 string
      | ( -?\d+ (?:\.\d*)? (?:[eE][+-]?\d+)? )          # 5 number, unless the literal
        (?! [\d.eE] | [^\x00-\x7f] )                    #   runs on past it
      | (?:--[^\n]*)? \Z                                # end of input
      | ( -?\d (?: \d | \. | [eE][+-]? )* | [^\W\d]\w* | . )   # 6 anything else
    )
    """,
    re.VERBOSE | re.DOTALL,
)
# The rest of a number literal, up to a digit ``\d`` does not cover.
_NUMBER_TAIL = re.compile(r"(?:\d|\.|[eE][+-]?)*")

_IDENT, _KEYWORD, _NUMBER, _STRING = (
    TokenKind.IDENT, TokenKind.KEYWORD, TokenKind.NUMBER, TokenKind.STRING
)
_PUNCTUATION = {kind.value: kind for kind in TokenKind if not kind.value.isalpha()}


def tokenize(text: str) -> List[Token]:
    """Tokenize SCSQL source text.

    Raises:
        QueryParseError: On unterminated strings, bad number literals or
            unexpected characters.
    """
    new = tuple.__new__
    tokens: List[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    # Index of the first newline not yet counted (len(text) once none is left).
    newline = text.find("\n") % (len(text) + 1)
    for skipped, word, punctuation, string, number, other in _PATTERN.findall(text):
        start = pos + len(skipped)
        if start > newline:
            # No token holds a newline, so every newline passed was skipped.
            line += text.count("\n", newline, start)
            line_start = text.rfind("\n", 0, start) + 1
            newline = text.find("\n", start) % (len(text) + 1)
        column = start - line_start + 1
        if word or other and other[0].isalpha():
            word = word or other
            pos = start + len(word)
            keyword = word.lower()
            if keyword in KEYWORDS:
                append(new(Token, (_KEYWORD, keyword, line, column)))
            else:
                append(new(Token, (_IDENT, word, line, column)))
        elif punctuation:
            pos = start + len(punctuation)
            append(new(Token, (_PUNCTUATION[punctuation], punctuation, line, column)))
        elif number:
            pos = start + len(number)
            append(new(Token, (_NUMBER, number, line, column)))
        elif string:
            pos = start + len(string)
            append(new(Token, (_STRING, string[1:-1], line, column)))
        elif other:
            token = _other(text, start, other, line, column)
            pos = start + len(token.text)
            append(token)
        else:
            append(new(Token, (TokenKind.END, "", line, column)))
            return tokens
    raise AssertionError("the end-of-input branch matches at the end of any text")


def _other(text: str, start: int, lexeme: str, line: int, column: int) -> Token:
    """The number literal at ``start`` that group 5 refused, or a QueryParseError."""
    char = lexeme[0]
    if not (char.isdigit() or char == "-" and text[start + 1 : start + 2].isdigit()):
        if char == "'":
            raise QueryParseError("unterminated string literal", line, column)
        raise QueryParseError(f"unexpected character {char!r}", line, column)
    end = _NUMBER_TAIL.match(text, start + (char == "-")).end()
    while text[end : end + 1].isdigit():
        end = _NUMBER_TAIL.match(text, end + 1).end()
    lexeme = text[start:end]
    try:
        float(lexeme)
    except ValueError:
        raise QueryParseError(f"bad number literal {lexeme!r}", line, column)
    return Token(TokenKind.NUMBER, lexeme, line, column)
