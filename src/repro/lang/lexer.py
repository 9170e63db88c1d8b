"""Tokenizer for the TM-like concrete syntax.

Keywords are case-insensitive; identifiers are case-sensitive. String
literals use single or double quotes with backslash escapes. ``$name``
is a query parameter: one token, so a ``$`` inside a string literal is
plain text.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import LexError

__all__ = ["TokenKind", "Token", "tokenize", "KEYWORDS"]


class TokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT = "int"
    FLOAT = "float"
    STRING = "string"
    PARAM = "param"
    SYMBOL = "symbol"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "select",
        "from",
        "where",
        "with",
        "and",
        "or",
        "not",
        "in",
        "exists",
        "forall",
        "count",
        "sum",
        "avg",
        "min",
        "max",
        "union",
        "intersect",
        "diff",
        "subset",
        "subseteq",
        "supset",
        "supseteq",
        "unnest",
        "tag",
        "payload",
        "true",
        "false",
        "null",
    }
)

#: One alternative per token class, tried in this order at each position after
#: spaces, tabs and carriage returns. Identifiers start with a letter
#: (``str.isalpha``) or ``_`` and go on with ``\w`` (``str.isalnum`` or ``_``):
#: ``uword`` finds the non-ASCII candidates and ``tokenize`` turns away those
#: that start with a non-letter such as ``²`` or ``½``. Numbers are Unicode
#: decimal digits (``\d``, ``str.isdecimal``), the digits ``int`` and
#: ``float`` accept. ``end`` takes trailing blanks and ``bad`` any other
#: character, so the matches tile the text and ``finditer`` skips nothing.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      (?P<word>[A-Za-z_]\w*)
    | (?P<comment>--[^\n]*)
    | (?P<symbol><>|!=|<=|>=|[-(){}\[\],.:|=<>+*/%])
    | (?P<nl>\n)
    | (?P<float>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
    | (?P<int>\d+)
    | (?P<string>'[^'\\]*(?:\\[\s\S][^'\\]*)*'|"[^"\\]*(?:\\[\s\S][^"\\]*)*")
    | (?P<param>\$\w*)
    | (?P<uword>[^\W\d]\w*)
    | (?P<end>\Z)
    | (?P<bad>[\s\S])
    )""",
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
_ESCAPE = re.compile(r"\\([\s\S])")


class Token(NamedTuple):
    kind: TokenKind
    text: str
    position: int
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text == sym

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"


_KIND = {
    "symbol": TokenKind.SYMBOL,
    "int": TokenKind.INT,
    "float": TokenKind.FLOAT,
}


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`LexError` on unrecognised input."""
    new = tuple.__new__  # a Token without the Python-level __new__
    keywords, keyword, ident = KEYWORDS, TokenKind.KEYWORD, TokenKind.IDENT
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group == "nl":
            line += 1
            line_start = m.end()
            continue
        if group == "end" or group == "comment":
            continue
        i, j = m.span(group)
        column = i - line_start + 1
        if group == "word" or group == "uword":
            word = text[i:j]
            if group == "uword" and not word[0].isalpha():
                raise LexError(f"unexpected character {word[0]!r}", i, line, column)
            lowered = word.lower()
            if lowered in keywords:
                append(new(Token, (keyword, lowered, i, line, column)))
            else:
                append(new(Token, (ident, word, i, line, column)))
        elif group in _KIND:
            append(new(Token, (_KIND[group], text[i:j], i, line, column)))
        elif group == "string":
            body = text[i + 1 : j - 1]
            if "\\" in body:
                body = _unescape(body, i + 1, line, line_start)
            append(new(Token, (TokenKind.STRING, body, i, line, column)))
        elif group == "param":
            name = text[i + 1 : j]
            if not name or name[0].isdigit():
                raise LexError("expected a parameter name after '$'", i, line, column)
            append(new(Token, (TokenKind.PARAM, name, i, line, column)))
        else:
            _diagnose(text, i, line, line_start)
    n = len(text)
    append(new(Token, (TokenKind.EOF, "", n, line, n - line_start + 1)))
    return tokens


def _unescape(body: str, offset: int, line: int, line_start: int) -> str:
    """The string literal *body* (at *offset* in the text) with escapes resolved."""

    def one(m: re.Match) -> str:
        mapped = _ESCAPES.get(m.group(1))
        if mapped is None:
            j = offset + m.start()
            raise LexError(f"unknown escape \\{m.group(1)}", j, line, j - line_start + 1)
        return mapped

    return _ESCAPE.sub(one, body)


def _diagnose(text: str, i: int, line: int, line_start: int) -> None:
    """Raise the :class:`LexError` for the character at *i*, which starts no token."""
    ch = text[i]
    if ch in "'\"":
        # An unterminated literal; an unknown escape before the end wins.
        j = text.find("\\", i + 1)
        while j != -1 and j + 1 < len(text):
            if text[j + 1] not in _ESCAPES:
                raise LexError(f"unknown escape \\{text[j + 1]}", j, line, j - line_start + 1)
            j = text.find("\\", j + 2)
        raise LexError("unterminated string literal", i, line, i - line_start + 1)
    raise LexError(f"unexpected character {ch!r}", i, line, i - line_start + 1)
