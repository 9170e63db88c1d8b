"""The character-at-a-time tokenizer that ``repro.lang.lexer`` replaced.

Kept only as an oracle for ``test_lexer_differential.py``: the regular
expression lexer must produce the same tokens, or the same ``LexError``, on
every input except the non-decimal digits this loop let through to ``int()``.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.lexer import KEYWORDS, TokenKind

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


def oracle_tokenize(text: str) -> list[tuple]:
    """*text* as (kind, text, position, line, column) tuples, or :class:`LexError`."""
    tokens: list[tuple] = []
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
            tokens.append((TokenKind.PARAM, text[i + 1 : j], i, line, column))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append((TokenKind.KEYWORD, lowered, i, line, column))
            else:
                tokens.append((TokenKind.IDENT, word, i, line, column))
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
            tokens.append((kind, text[i:j], i, line, column))
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
            tokens.append((TokenKind.STRING, "".join(chars), i, line, column))
            i = j + 1
            continue
        matched = False
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append((TokenKind.SYMBOL, sym, i, line, column))
                i += len(sym)
                matched = True
                break
        if not matched:
            raise LexError(f"unexpected character {ch!r}", i, line, column)
    tokens.append((TokenKind.EOF, "", n, line, n - line_start + 1))
    return tokens
