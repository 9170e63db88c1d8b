"""The regular-expression lexer against the character loop it replaced.

On every input both must give the same tokens (kind, text, position, line,
column) or the same ``LexError`` (message, position, line, column). The one
intended difference is a digit that is not a decimal digit (``²``, ``①``,
``፩``): the loop took it for part of a number and ``int()`` then failed
with a bare ``ValueError``; the lexer now stops there with a ``LexError``.
Texts holding such a digit are kept out of the differential and checked on
their own below.
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import LexError, ReproError
from repro.lang.lexer import TokenKind, tokenize
from repro.lang.parser import parse
from repro.workloads import queries
from tests.lang.lexer_oracle import oracle_tokenize

CORPUS = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "corpus" / "adhoc.txt"


def outcome(lex, text):
    try:
        return [tuple(token) for token in lex(text)]
    except LexError as err:
        return ("LexError", str(err), err.position, err.line, err.column)


def non_decimal_digit(text):
    return any(ch.isdigit() and not ch.isdecimal() for ch in text)


def assert_same(text):
    assert outcome(tokenize, text) == outcome(oracle_tokenize, text)


def corpus():
    return [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]


def test_corpus_texts():
    texts = corpus()
    assert len(texts) == 200
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("name", queries.__all__)
def test_paper_queries(name):
    assert_same(getattr(queries, name))


#: Pieces that sit on the lexer's edges: comments against minus, escapes,
#: quotes, parameters, exponents, multi-character symbols and line breaks.
FRAGMENTS = [
    " ", "\t", "\r", "\n", "-", "--", "$", "_", ".", "=", "<", ">", "!", "<>",
    "'", '"', "\\", "\\n", "\\q", "e", "E", "+", "1", "09", "1.5", "2e", "x",
    "select", "SeLeCt", "in", "é", "١", " ", "½", "(", "{", "]", ":", "|", "%",
]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14).map("".join))
def test_fragment_soup(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.characters(max_codepoint=127), max_size=40))
def test_ascii_text(text):
    assert_same(text)


@settings(max_examples=500, deadline=None)
@given(st.text(max_size=30))
def test_unicode_text(text):
    assume(not non_decimal_digit(text))
    assert_same(text)


# -- the intended difference ---------------------------------------------------

#: text -> (position, line, column) of the LexError the lexer now raises; the
#: loop lexed each as a number whose text int() or float() rejected.
NON_DECIMAL_DIGITS = {
    "SELECT x FROM X x WHERE x.a = ²": (30, 1, 31),
    "SELECT x FROM X x WHERE x.a = 1²": (31, 1, 32),
    "SELECT x FROM X x\nWHERE x.a = 1.²": (32, 2, 15),
    "SELECT x FROM X x WHERE x.a = ①": (30, 1, 31),
    "፩": (0, 1, 1),
}


@pytest.mark.parametrize("text", NON_DECIMAL_DIGITS)
def test_non_decimal_digit_is_a_lex_error(text):
    with pytest.raises(LexError, match="unexpected character") as info:
        parse(text)
    assert (info.value.position, info.value.line, info.value.column) == NON_DECIMAL_DIGITS[text]
    # The loop let the digit into a number token, for int()/float() to reject.
    numbers = [t for t in oracle_tokenize(text) if t[0] in (TokenKind.INT, TokenKind.FLOAT)]
    assert any(non_decimal_digit(t[1]) for t in numbers)


def test_non_decimal_digit_after_an_exponent_is_a_parse_error():
    # The loop read "1e²" as one float; now it is 1 followed by the name e².
    assert [t.text for t in tokenize("1e²")[:-1]] == ["1", "e²"]
    with pytest.raises(ReproError):
        parse("SELECT x FROM X x WHERE x.a = 1e²")


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS + ["²", "³", "①", "፩"]), max_size=12).map("".join))
def test_non_decimal_digits_never_reach_int(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    for token in tokens:
        if token.kind is TokenKind.INT:
            int(token.text)
        elif token.kind is TokenKind.FLOAT:
            float(token.text)


# -- the digit and identifier rules --------------------------------------------


def test_unicode_decimal_digits_are_numbers():
    assert [(t.kind, t.text) for t in tokenize("١٢ ١.٥")[:-1]] == [
        (TokenKind.INT, "١٢"),
        (TokenKind.FLOAT, "١.٥"),
    ]
    assert parse("١٢") == parse("12")


@pytest.mark.parametrize("text", ["x²", "_½", "é2", "ǅx", "x١"])
def test_identifiers_continue_with_any_letter_or_number(text):
    assert [(t.kind, t.text) for t in tokenize(text)[:-1]] == [(TokenKind.IDENT, text)]


@pytest.mark.parametrize("text", ["²x", "½", "Ⅻ", "١x"])
def test_identifiers_start_with_a_letter_or_underscore(text):
    # A number that is not a letter starts no identifier: a non-decimal one
    # is an error, a decimal digit starts a number.
    if text[0].isdecimal():
        assert tokenize(text)[0].kind is TokenKind.INT
    else:
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(text)
