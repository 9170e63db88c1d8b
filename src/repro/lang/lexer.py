"""Tokenizer for the TM-like concrete syntax.

Keywords are case-insensitive; identifiers are case-sensitive. String
literals use single or double quotes with backslash escapes. ``$name``
is a query parameter: one token, so a ``$`` inside a string literal is
plain text.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

_SYMBOLS = (
    "<>",
    "!=",
    "<=",
    ">=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ".",
    ":",
    "|",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    position: int
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == TokenKind.KEYWORD and self.text == word

    def is_symbol(self, sym: str) -> bool:
        return self.kind == TokenKind.SYMBOL and self.text == sym

    def __repr__(self) -> str:
        return f"{self.kind.value}:{self.text!r}@{self.line}:{self.column}"


def tokenize(text: str) -> list[Token]:
    """Tokenize *text*; raises :class:`LexError` on unrecognised input."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        if ch == "-" and text[i : i + 2] == "--":  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        column = i - line_start + 1
        if ch == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i + 1 or text[i + 1].isdigit():
                raise LexError("expected a parameter name after '$'", i, line, column)
            tokens.append(Token(TokenKind.PARAM, text[i + 1 : j], i, line, column))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenKind.KEYWORD, lowered, i, line, column))
            else:
                tokens.append(Token(TokenKind.IDENT, word, i, line, column))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            is_float = False
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    is_float = True
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            kind = TokenKind.FLOAT if is_float else TokenKind.INT
            tokens.append(Token(kind, text[i:j], i, line, column))
            i = j
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            chars: list[str] = []
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    mapped = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}.get(esc)
                    if mapped is None:
                        raise LexError(f"unknown escape \\{esc}", j, line, j - line_start + 1)
                    chars.append(mapped)
                    j += 2
                else:
                    chars.append(text[j])
                    j += 1
            if j >= n:
                raise LexError("unterminated string literal", i, line, column)
            tokens.append(Token(TokenKind.STRING, "".join(chars), i, line, column))
            i = j + 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(TokenKind.SYMBOL, sym, i, line, column))
                i += len(sym)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", i, line, column)
    tokens.append(Token(TokenKind.EOF, "", n, line, n - line_start + 1))
    return tokens
