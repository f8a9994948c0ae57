"""Differential fuzzing of the SCSQL front end on query *text*.

Every generated text goes through the production lexer and parser and
through the character-loop front end they replaced
(``tests/scsql/reference_frontend.py``).  The two must agree exactly: the
same ``(kind, text, line, column)`` tokens, the same AST (``==`` plus every
``FuncCall`` span), or the same error type, message, line and column.
Every ``QueryParseError`` must point inside the text, and ``compile_plan``
must return a plan or raise a ``QueryError``, never anything else.

Three kinds of input:

(a) ``unparse`` of the AST strategy ``test_compiler_fuzz`` uses, with its
    separators and keyword case perturbed (tabs, CRLF, comments, non-ASCII
    spaces);
(b) token deletions, swaps and duplications of the lifecycle texts and the
    fig6/fig8/fig15 query builders;
(c) arbitrary text over the SCSQL punctuation plus non-ASCII letters,
    digits (``\\u00b2``, ``\\u0661``) and spaces (``\\u00a0``, ``\\u2028``).

Tier-1 runs a fixed derandomized budget; ``--hypothesis-profile=fuzz``
(registered in the root ``conftest.py``) runs ten times as many examples.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiments.fig6 import point_to_point_query
from repro.core.experiments.fig8 import merge_query
from repro.core.experiments.fig15 import inbound_query
from repro.core.experiments.scale import scale_stream_query
from repro.scsql.ast import Condition, CreateFunction, FuncCall, SelectQuery, SetExpr
from repro.scsql.lexer import tokenize
from repro.scsql.parser import parse
from repro.scsql.plan import compile_plan
from repro.scsql.unparse import unparse
from repro.util.errors import QueryError, QueryParseError
from tests.scsql import reference_frontend as reference
from tests.scsql.strategies import queries

# Tier-1's budget per test; a profile with a larger one (``fuzz``) wins.
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=max(200, settings.default.max_examples),
)

SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", " -- note\n", "\u00a0", "\u2028", "\n\n "]
KEYWORD = re.compile(r"\b(select|from|where|and|in|bag|of)\b")


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
def _outcome(front_end, text):
    try:
        return front_end(text), None
    except Exception as error:  # noqa: BLE001 - compared below, type included
        return None, error


def _error_key(error):
    if error is None:
        return None
    return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)


def _token_keys(tokens):
    return [(t.kind.name, t.text, t.line, t.column) for t in tokens]


def _spans(node):
    """Every FuncCall's (name, span), in a fixed walk order."""
    if isinstance(node, FuncCall):
        return [(node.name, node.span)] + [s for arg in node.args for s in _spans(arg)]
    if isinstance(node, SetExpr):
        return [s for item in node.items for s in _spans(item)]
    if isinstance(node, Condition):
        return _spans(node.expr)
    if isinstance(node, SelectQuery):
        return _spans(node.select) + [s for c in node.conditions for s in _spans(c)]
    if isinstance(node, CreateFunction):
        return _spans(node.body)
    return []


def _inside(text, error):
    lines = text.split("\n")
    return 1 <= error.line <= len(lines) and 1 <= error.column <= len(lines[error.line - 1]) + 1


def assert_front_ends_agree(text):
    expected, expected_error = _outcome(reference.tokenize, text)
    tokens, error = _outcome(tokenize, text)
    assert _error_key(error) == _error_key(expected_error), text
    if expected_error is None:
        assert _token_keys(tokens) == _token_keys(expected), text

    expected, expected_error = _outcome(reference.parse, text)
    statement, error = _outcome(parse, text)
    assert _error_key(error) == _error_key(expected_error), text
    if expected_error is None:
        assert statement == expected, text
        assert _spans(statement) == _spans(expected), text
    elif isinstance(error, QueryParseError):
        assert _inside(text, error), (text, str(error))

    try:
        compile_plan(text)
    except QueryError:
        pass


# ----------------------------------------------------------------------
# (a) unparsed ASTs, perturbed
# ----------------------------------------------------------------------
@st.composite
def perturbed_unparse(draw):
    words = unparse(draw(queries)).split(" ")
    text = words[0]
    for word in words[1:]:
        text += draw(st.sampled_from(SEPARATORS)) + word
    return KEYWORD.sub(
        lambda m: draw(st.sampled_from([m.group(0), m.group(0).upper(), m.group(0).title()])),
        text,
    )


@FUZZ
@given(text=perturbed_unparse())
def test_unparsed_queries(text):
    assert_front_ends_agree(text)


# ----------------------------------------------------------------------
# (b) near-valid texts: token deletion, swap and duplication
# ----------------------------------------------------------------------
SOURCES = [
    point_to_point_query(500, 1),
    merge_query(500, 1, 3, 17),
    scale_stream_query(500, 1),
    "select extract(b) from sp a, sp b "
    "where b=sp(streamof(count(extract(a))), 'bg', 4) "
    "and a=sp(gen_array(500,1), 'bg', 9);",
] + [inbound_query(number, 2, 500, 1) for number in range(1, 7)]


def _lexemes(text):
    """The source slice of every token of ``text`` (END excluded)."""
    starts = [0] + [i + 1 for i, char in enumerate(text) if char == "\n"]
    slices = []
    for token in reference.tokenize(text)[:-1]:
        start = starts[token.line - 1] + token.column - 1
        width = len(token.text) + (2 if token.kind.name == "STRING" else 0)
        slices.append(text[start : start + width])
    return slices


LEXEMES = [_lexemes(text) for text in SOURCES]


@st.composite
def mutated_source(draw):
    lexemes = list(draw(st.sampled_from(LEXEMES)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lexemes) - 1))
        operation = draw(st.sampled_from(["delete", "swap", "duplicate"]))
        if operation == "delete" and len(lexemes) > 1:
            del lexemes[i]
        elif operation == "swap":
            j = draw(st.integers(0, len(lexemes) - 1))
            lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
        else:
            lexemes.insert(i, lexemes[i])
    return "".join(lexeme + draw(st.sampled_from(SEPARATORS)) for lexeme in lexemes)


@FUZZ
@given(text=mutated_source())
def test_mutated_sources(text):
    assert_front_ends_agree(text)


def test_sources_are_valid_queries():
    """The seeds of (b) themselves compile: mutations start from valid text."""
    for text in SOURCES:
        assert_front_ends_agree(text)
        compile_plan(text)


# ----------------------------------------------------------------------
# (c) arbitrary text
# ----------------------------------------------------------------------
ALPHABET = "(){},;=-'.>_ \t\n\rabcxyzeE0123456789\u00b2\u0661\u00e9\u00a0\u2028\u017fK\u00bd"
FRAGMENTS = st.sampled_from(
    ["select ", " from ", " where ", " and ", " in ", "bag of ", "sp", "'bg'",
     "--", "->", "1e+5", "-5", "a-1", "1.e5", "x\u00b2", "\u0661\u0662", "SELECT", "\r\n"]
)


@FUZZ
@given(text=st.lists(st.one_of(FRAGMENTS, st.text(ALPHABET, max_size=4)), max_size=12).map("".join))
def test_arbitrary_text(text):
    assert_front_ends_agree(text)
