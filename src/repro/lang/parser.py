"""Recursive-descent parser for the TM-like SFW language.

Grammar (precedence from loosest to tightest)::

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | comparison
    comparison  := additive (cmp_op additive)?
    cmp_op      := = | <> | != | < | <= | > | >= | IN | NOT IN
                 | SUBSET | SUBSETEQ | SUPSET | SUPSETEQ
    additive    := multiplic ((+ | - | UNION | DIFF) multiplic)*
    multiplic   := unary ((* | / | % | INTERSECT) unary)*
    unary       := - unary | postfix
    postfix     := primary (. IDENT)*
    primary     := literal | $IDENT | IDENT | tuple | set | list | ( expr )
                 | sfw | quantifier | aggregate | UNNEST ( expr )

    sfw         := SELECT expr FROM expr IDENT [WHERE expr]
                   [WITH IDENT = expr (, IDENT = expr)*]
    quantifier  := (EXISTS | FORALL) IDENT IN expr ( expr )
    aggregate   := (COUNT | SUM | AVG | MIN | MAX) ( expr )
    tuple       := ( IDENT = expr (, IDENT = expr)* )
    set         := { [expr (, expr)*] }
    list        := [ [expr (, expr)*] ]

Notes:

* ``( ident = ... )`` parses as a *tuple constructor* (the paper's syntax,
  e.g. ``(s = e.address.street, c = e.address.city)``). To write an equality
  whose left side is a bare variable inside parentheses, put the whole
  comparison elsewhere or use an attribute path — in practice predicates
  compare paths, so the ambiguity does not bite.
* The WITH clause of an SFW block is desugared by substituting each binding
  into the SELECT and WHERE clauses (the paper uses WITH purely for
  notational convenience). Bindings may reference earlier bindings.
* ``A DIFF B`` is set difference; ``-`` between sets is *not* supported
  (minus stays arithmetic).
"""

from __future__ import annotations

import functools

from repro.errors import ParseError
from repro.lang.ast import (
    SFW,
    Agg,
    AggFunc,
    Arith,
    ArithOp,
    Attr,
    Cmp,
    CmpOp,
    Const,
    Expr,
    ListExpr,
    Neg,
    Not,
    Param,
    Quant,
    QuantKind,
    SetExpr,
    SetOp,
    SetOpKind,
    TupleExpr,
    Var,
    VariantExpr,
    make_and,
    make_or,
    substitute,
)
from repro.lang.ast import PayloadOf, TagOf, UnnestExpr
from repro.lang.lexer import Token, TokenKind, tokenize
from repro.model.values import NULL

__all__ = ["parse", "parse_query"]

_SYMBOL, _KEYWORD, _IDENT, _EOF = TokenKind.SYMBOL, TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.EOF

#: Each precedence level's operators: token text -> (the kind the token must
#: have, [node class,] operator). A string literal or parameter can carry the
#: same text, hence the kind. Every comparison builds a ``Cmp``.
_CMP_OPS = {
    "=": (_SYMBOL, CmpOp.EQ),
    "<>": (_SYMBOL, CmpOp.NE),
    "!=": (_SYMBOL, CmpOp.NE),
    "<": (_SYMBOL, CmpOp.LT),
    "<=": (_SYMBOL, CmpOp.LE),
    ">": (_SYMBOL, CmpOp.GT),
    ">=": (_SYMBOL, CmpOp.GE),
    "in": (_KEYWORD, CmpOp.IN),
    "subset": (_KEYWORD, CmpOp.SUBSET),
    "subseteq": (_KEYWORD, CmpOp.SUBSETEQ),
    "supset": (_KEYWORD, CmpOp.SUPSET),
    "supseteq": (_KEYWORD, CmpOp.SUPSETEQ),
}

_ADDITIVE_OPS = {
    "+": (_SYMBOL, Arith, ArithOp.ADD),
    "-": (_SYMBOL, Arith, ArithOp.SUB),
    "union": (_KEYWORD, SetOp, SetOpKind.UNION),
    "diff": (_KEYWORD, SetOp, SetOpKind.DIFF),
}

_MULTIPLICATIVE_OPS = {
    "*": (_SYMBOL, Arith, ArithOp.MUL),
    "/": (_SYMBOL, Arith, ArithOp.DIV),
    "%": (_SYMBOL, Arith, ArithOp.MOD),
    "intersect": (_KEYWORD, SetOp, SetOpKind.INTERSECT),
}

_AGG_KEYWORDS = {
    "count": AggFunc.COUNT,
    "sum": AggFunc.SUM,
    "avg": AggFunc.AVG,
    "min": AggFunc.MIN,
    "max": AggFunc.MAX,
}

_KEYWORD_CONSTANTS = {"true": True, "false": False, "null": NULL}

#: Keywords applied to one parenthesised operand: ``COUNT(e)``, ``TAG(e)`` ...
_UNARY_KEYWORDS = {
    **{word: functools.partial(Agg, func) for word, func in _AGG_KEYWORDS.items()},
    "unnest": UnnestExpr,
    "tag": TagOf,
    "payload": PayloadOf,
}

#: Literal tokens -> the node that holds their value.
_LITERALS = {
    TokenKind.INT: lambda text: Const(int(text)),
    TokenKind.FLOAT: lambda text: Const(float(text)),
    TokenKind.STRING: Const,
    TokenKind.PARAM: Param,
}

#: The deepest look-ahead the grammar takes is ``peek(2)``.
_LOOKAHEAD = 2


class _Parser:
    def __init__(self, tokens: list[Token]):
        # *tokens* ends with EOF; more copies of it make every look-ahead an index.
        self.tokens = tokens + [tokens[-1]] * _LOOKAHEAD
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(f"{message}, found {tok.kind.value} {tok.text!r}", tok.position, tok.line, tok.column)

    def expect_symbol(self, sym: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _SYMBOL or tok.text != sym:
            raise self.error(f"expected {sym!r}")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not _KEYWORD or tok.text != word:
            raise self.error(f"expected {word.upper()}")
        self.pos += 1
        return tok

    def expect_ident(self) -> str:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise self.error("expected identifier")
        self.pos += 1
        return tok.text

    def accept_symbol(self, sym: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is _SYMBOL and tok.text == sym:
            self.pos += 1
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is _KEYWORD and tok.text == word:
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        items = [self.parse_and()]
        while self.accept_keyword("or"):
            items.append(self.parse_and())
        return items[0] if len(items) == 1 else make_or(items)

    def parse_and(self) -> Expr:
        items = [self.parse_not()]
        while self.accept_keyword("and"):
            items.append(self.parse_not())
        return items[0] if len(items) == 1 else make_and(items)

    def parse_not(self) -> Expr:
        if self.accept_keyword("not"):
            return Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        tok = self.tokens[self.pos]
        entry = _CMP_OPS.get(tok.text)
        if entry is not None and tok.kind is entry[0]:
            self.pos += 1
            return Cmp(entry[1], left, self.parse_additive())
        if tok.kind is _KEYWORD and tok.text == "not" and self.tokens[self.pos + 1].is_keyword("in"):
            self.pos += 2
            return Cmp(CmpOp.NOT_IN, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.tokens[self.pos]
            entry = _ADDITIVE_OPS.get(tok.text)
            if entry is None or tok.kind is not entry[0]:
                return left
            self.pos += 1
            left = entry[1](entry[2], left, self.parse_multiplicative())

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.tokens[self.pos]
            entry = _MULTIPLICATIVE_OPS.get(tok.text)
            if entry is None or tok.kind is not entry[0]:
                return left
            self.pos += 1
            left = entry[1](entry[2], left, self.parse_unary())

    def parse_unary(self) -> Expr:
        if self.accept_symbol("-"):
            return Neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.accept_symbol("."):
            expr = Attr(expr, self.expect_ident())
        return expr

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind, text = tok.kind, tok.text
        if kind is _IDENT:
            self.pos += 1
            return Var(text)
        if kind is _KEYWORD:
            if text == "select":
                return self.parse_sfw()
            if text == "exists" or text == "forall":
                return self.parse_quantifier()
            if text in _KEYWORD_CONSTANTS:
                self.pos += 1
                return Const(_KEYWORD_CONSTANTS[text])
            if text in _UNARY_KEYWORDS:
                self.pos += 1
                self.expect_symbol("(")
                operand = self.parse_expr()
                self.expect_symbol(")")
                return _UNARY_KEYWORDS[text](operand)
        elif kind is _SYMBOL:
            if text == "(":
                # Lookahead: "( ident =" (but not "==") starts a tuple constructor.
                if self.tokens[self.pos + 1].kind is _IDENT and self.tokens[self.pos + 2].is_symbol("="):
                    return self.parse_tuple()
                self.pos += 1
                expr = self.parse_expr()
                self.expect_symbol(")")
                return expr
            if text == "{":
                return self.parse_set()
            if text == "[":
                return self.parse_list()
            if text == "<" and self.tokens[self.pos + 1].kind is _IDENT and self.tokens[self.pos + 2].is_symbol(":"):
                # Variant constructor: < tag : expr >. The payload is parsed at
                # additive precedence so the closing '>' is not mistaken for a
                # comparison; parenthesize boolean payloads: <ok: (a = b)>.
                self.pos += 1
                tag = self.expect_ident()
                self.expect_symbol(":")
                value = self.parse_additive()
                self.expect_symbol(">")
                return VariantExpr(tag, value)
        elif kind in _LITERALS:
            self.pos += 1
            return _LITERALS[kind](text)
        raise self.error("expected expression")

    def parse_tuple(self) -> Expr:
        self.expect_symbol("(")
        fields: list[tuple[str, Expr]] = []
        while True:
            label = self.expect_ident()
            self.expect_symbol("=")
            fields.append((label, self.parse_expr()))
            if not self.accept_symbol(","):
                break
        self.expect_symbol(")")
        return TupleExpr(tuple(fields))

    def parse_set(self) -> Expr:
        self.expect_symbol("{")
        items: list[Expr] = []
        if not self.peek().is_symbol("}"):
            items.append(self.parse_expr())
            while self.accept_symbol(","):
                items.append(self.parse_expr())
        self.expect_symbol("}")
        return SetExpr(tuple(items))

    def parse_list(self) -> Expr:
        self.expect_symbol("[")
        items: list[Expr] = []
        if not self.peek().is_symbol("]"):
            items.append(self.parse_expr())
            while self.accept_symbol(","):
                items.append(self.parse_expr())
        self.expect_symbol("]")
        return ListExpr(tuple(items))

    def parse_quantifier(self) -> Expr:
        kind = QuantKind.EXISTS if self.advance().text == "exists" else QuantKind.FORALL
        var = self.expect_ident()
        self.expect_keyword("in")
        domain = self.parse_additive()
        self.expect_symbol("(")
        pred = self.parse_expr()
        self.expect_symbol(")")
        return Quant(kind, var, domain, pred)

    def parse_sfw(self) -> Expr:
        self.expect_keyword("select")
        select = self.parse_expr()
        self.expect_keyword("from")
        source = self.parse_additive()
        var = self.expect_ident()
        where: Expr | None = None
        if self.accept_keyword("where"):
            where = self.parse_expr()
        if self.accept_keyword("with"):
            bindings: list[tuple[str, Expr]] = []
            while True:
                name = self.expect_ident()
                self.expect_symbol("=")
                bindings.append((name, self.parse_expr()))
                if not self.accept_symbol(","):
                    break
            # Substitute bindings (later bindings may use earlier ones).
            for name, value in reversed(bindings):
                select = substitute(select, name, value)
                if where is not None:
                    where = substitute(where, name, value)
        return SFW(select, var, source, where)


def parse(text: str) -> Expr:
    """Parse *text* as a single expression; raises :class:`ParseError`."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expr()
    if parser.peek().kind != TokenKind.EOF:
        raise parser.error("unexpected trailing input")
    return expr


def parse_query(text: str) -> SFW:
    """Parse *text* and require the result to be an SFW block (or UNNEST of one)."""
    expr = parse(text)
    if isinstance(expr, SFW):
        return expr
    raise ParseError("expected a SELECT-FROM-WHERE query at top level")
