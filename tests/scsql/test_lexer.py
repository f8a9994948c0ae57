"""Unit tests for the SCSQL tokenizer."""

import pytest

import repro.scsql
from repro.scsql.lexer import Token, TokenKind, tokenize
from repro.util.errors import QueryParseError


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]  # drop END


class TestBasics:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("SELECT From wHeRe")
        assert [t.kind for t in tokens[:-1]] == [TokenKind.KEYWORD] * 3
        assert [t.text for t in tokens[:-1]] == ["select", "from", "where"]

    def test_identifiers_keep_case(self):
        token = tokenize("gen_Array")[0]
        assert token.kind is TokenKind.IDENT
        assert token.text == "gen_Array"

    def test_punctuation(self):
        assert kinds("(){},;=") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
            TokenKind.EQUALS,
        ]

    def test_arrow(self):
        assert kinds("->") == [TokenKind.ARROW]

    def test_end_token_always_present(self):
        assert tokenize("")[-1].kind is TokenKind.END

    def test_token_api(self):
        token = tokenize("x 42")[1]
        assert repro.scsql.Token is Token
        assert (token.kind, token.text, token.line, token.column) == (TokenKind.NUMBER, "42", 1, 3)
        assert token.value == 42 and str(token) == "42"
        assert str(tokenize("")[0]) == "end"  # an empty text shows its kind
        with pytest.raises(AttributeError):
            token.text = "43"


class TestLiterals:
    def test_integers_and_floats(self):
        assert tokenize("3000000")[0].value == 3_000_000
        assert tokenize("2.5")[0].value == 2.5
        assert tokenize("1e3")[0].value == 1000.0
        assert [(t.text, t.value) for t in tokenize("1e+5 2.5E-1")[:-1]] == [
            ("1e+5", 1e5), ("2.5E-1", 0.25)
        ]

    def test_negative_number(self):
        assert tokenize("-5")[0].value == -5
        # A minus before a digit always starts a number, after a name too.
        assert [(t.kind, t.text) for t in tokenize("a-1")[:-1]] == [
            (TokenKind.IDENT, "a"), (TokenKind.NUMBER, "-1")
        ]

    def test_strings(self):
        token = tokenize("'bg'")[0]
        assert token.kind is TokenKind.STRING
        assert token.text == "bg"

    def test_unterminated_string(self):
        with pytest.raises(QueryParseError, match="unterminated"):
            tokenize("'oops")
        # A string may not span lines: the error points at its quote.
        with pytest.raises(QueryParseError, match="unterminated") as caught:
            tokenize("x 'ab\ncd'")
        assert (caught.value.line, caught.value.column) == (1, 3)

    def test_value_on_non_number_rejected(self):
        with pytest.raises(QueryParseError):
            tokenize("abc")[0].value


class TestPositionsAndComments:
    def test_line_and_column_tracked(self):
        tokens = tokenize("select\n  extract(b)")
        extract = tokens[1]
        assert (extract.line, extract.column) == (2, 3)
        # CR is a space of its line and a tab one column, like any space.
        tokens = tokenize("a\r\nb\tc")
        assert [(t.line, t.column) for t in tokens] == [(1, 1), (2, 1), (2, 3), (2, 4)]

    def test_comments_skipped(self):
        tokens = tokenize("select -- this is a comment\nx")
        assert [t.text for t in tokens[:-1]] == ["select", "x"]
        # After a comment that ends the text, END sits where the comment starts.
        end = tokenize("select  -- trailing")[-1]
        assert (end.kind, end.line, end.column) == (TokenKind.END, 1, 9)

    def test_unexpected_character(self):
        with pytest.raises(QueryParseError, match="unexpected character"):
            tokenize("select @")


class TestPaperQueries:
    def test_query1_tokenizes(self):
        text = """
        select extract(c) from
        bag of sp a, sp b, sp c, integer n
        where c=sp(extract(b), 'bg') and n=4;
        """
        tokens = tokenize(text)
        assert tokens[-1].kind is TokenKind.END
        assert sum(1 for t in tokens if t.kind is TokenKind.STRING) == 1
