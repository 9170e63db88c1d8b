"""Unit tests for the tokenizer."""

import pytest

from repro.errors import LexError
from repro.lang.lexer import TokenKind, tokenize


def kinds_and_texts(src):
    return [(t.kind, t.text) for t in tokenize(src)[:-1]]  # drop EOF


class TestTokens:
    def test_keywords_case_insensitive(self):
        assert kinds_and_texts("SELECT select SeLeCt") == [
            (TokenKind.KEYWORD, "select")
        ] * 3

    def test_identifiers_case_sensitive(self):
        toks = kinds_and_texts("EMP emp Emp_2")
        assert toks == [
            (TokenKind.IDENT, "EMP"),
            (TokenKind.IDENT, "emp"),
            (TokenKind.IDENT, "Emp_2"),
        ]

    def test_parameters(self):
        assert kinds_and_texts("$key = $k_2") == [
            (TokenKind.PARAM, "key"),
            (TokenKind.SYMBOL, "="),
            (TokenKind.PARAM, "k_2"),
        ]

    def test_dollar_inside_a_string_is_text(self):
        assert kinds_and_texts("'pay $usd'") == [(TokenKind.STRING, "pay $usd")]

    @pytest.mark.parametrize("src", ["$", "$ key", "$1"])
    def test_dollar_without_a_name_is_an_error(self, src):
        with pytest.raises(LexError, match="parameter name"):
            tokenize(src)

    def test_numbers(self):
        toks = kinds_and_texts("1 42 3.14 1e3 2.5e-2")
        assert toks == [
            (TokenKind.INT, "1"),
            (TokenKind.INT, "42"),
            (TokenKind.FLOAT, "3.14"),
            (TokenKind.FLOAT, "1e3"),
            (TokenKind.FLOAT, "2.5e-2"),
        ]

    def test_attribute_dot_is_not_a_float(self):
        toks = kinds_and_texts("x.a")
        assert toks == [
            (TokenKind.IDENT, "x"),
            (TokenKind.SYMBOL, "."),
            (TokenKind.IDENT, "a"),
        ]

    def test_strings_with_escapes(self):
        toks = kinds_and_texts("'a\\'b' \"c\\nd\"")
        assert toks == [(TokenKind.STRING, "a'b"), (TokenKind.STRING, "c\nd")]

    def test_multi_char_symbols(self):
        toks = kinds_and_texts("<> <= >= != < > =")
        assert [t for _, t in toks] == ["<>", "<=", ">=", "!=", "<", ">", "="]

    def test_line_comments_ignored(self):
        toks = kinds_and_texts("1 -- comment here\n2")
        assert toks == [(TokenKind.INT, "1"), (TokenKind.INT, "2")]

    def test_positions_track_lines(self):
        toks = tokenize("a\n  b")
        assert toks[0].line == 1 and toks[0].column == 1
        assert toks[1].line == 2 and toks[1].column == 3

    def test_eof_token_present(self):
        assert tokenize("")[-1].kind == TokenKind.EOF


class TestLexErrors:
    def test_unterminated_string(self):
        with pytest.raises(LexError, match="unterminated"):
            tokenize("'abc")

    def test_unknown_character(self):
        with pytest.raises(LexError, match="unexpected character"):
            tokenize("a @ b")

    def test_unknown_escape(self):
        with pytest.raises(LexError, match="unknown escape"):
            tokenize("'a\\qb'")
