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

_CMP_SYMBOLS = {
    "=": CmpOp.EQ,
    "<>": CmpOp.NE,
    "!=": CmpOp.NE,
    "<": CmpOp.LT,
    "<=": CmpOp.LE,
    ">": CmpOp.GT,
    ">=": CmpOp.GE,
}

_CMP_KEYWORDS = {
    "subset": CmpOp.SUBSET,
    "subseteq": CmpOp.SUBSETEQ,
    "supset": CmpOp.SUPSET,
    "supseteq": CmpOp.SUPSETEQ,
}

_AGG_KEYWORDS = {
    "count": AggFunc.COUNT,
    "sum": AggFunc.SUM,
    "avg": AggFunc.AVG,
    "min": AggFunc.MIN,
    "max": AggFunc.MAX,
}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != TokenKind.EOF:
            self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(f"{message}, found {tok.kind.value} {tok.text!r}", tok.position, tok.line, tok.column)

    def expect_symbol(self, sym: str) -> Token:
        if not self.peek().is_symbol(sym):
            raise self.error(f"expected {sym!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.peek().is_keyword(word):
            raise self.error(f"expected {word.upper()}")
        return self.advance()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != TokenKind.IDENT:
            raise self.error("expected identifier")
        self.advance()
        return tok.text

    def accept_symbol(self, sym: str) -> bool:
        if self.peek().is_symbol(sym):
            self.advance()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
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
        tok = self.peek()
        if tok.kind == TokenKind.SYMBOL and tok.text in _CMP_SYMBOLS:
            self.advance()
            right = self.parse_additive()
            return Cmp(_CMP_SYMBOLS[tok.text], left, right)
        if tok.kind == TokenKind.KEYWORD and tok.text in _CMP_KEYWORDS:
            self.advance()
            right = self.parse_additive()
            return Cmp(_CMP_KEYWORDS[tok.text], left, right)
        if tok.is_keyword("in"):
            self.advance()
            right = self.parse_additive()
            return Cmp(CmpOp.IN, left, right)
        if tok.is_keyword("not") and self.peek(1).is_keyword("in"):
            self.advance()
            self.advance()
            right = self.parse_additive()
            return Cmp(CmpOp.NOT_IN, left, right)
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.is_symbol("+"):
                self.advance()
                left = Arith(ArithOp.ADD, left, self.parse_multiplicative())
            elif tok.is_symbol("-"):
                self.advance()
                left = Arith(ArithOp.SUB, left, self.parse_multiplicative())
            elif tok.is_keyword("union"):
                self.advance()
                left = SetOp(SetOpKind.UNION, left, self.parse_multiplicative())
            elif tok.is_keyword("diff"):
                self.advance()
                left = SetOp(SetOpKind.DIFF, left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.is_symbol("*"):
                self.advance()
                left = Arith(ArithOp.MUL, left, self.parse_unary())
            elif tok.is_symbol("/"):
                self.advance()
                left = Arith(ArithOp.DIV, left, self.parse_unary())
            elif tok.is_symbol("%"):
                self.advance()
                left = Arith(ArithOp.MOD, left, self.parse_unary())
            elif tok.is_keyword("intersect"):
                self.advance()
                left = SetOp(SetOpKind.INTERSECT, left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expr:
        if self.accept_symbol("-"):
            return Neg(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.peek().is_symbol("."):
            self.advance()
            label = self.expect_ident()
            expr = Attr(expr, label)
        return expr

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == TokenKind.INT:
            self.advance()
            return Const(int(tok.text))
        if tok.kind == TokenKind.FLOAT:
            self.advance()
            return Const(float(tok.text))
        if tok.kind == TokenKind.STRING:
            self.advance()
            return Const(tok.text)
        if tok.kind == TokenKind.PARAM:
            self.advance()
            return Param(tok.text)
        if tok.is_keyword("true"):
            self.advance()
            return Const(True)
        if tok.is_keyword("false"):
            self.advance()
            return Const(False)
        if tok.is_keyword("null"):
            self.advance()
            return Const(NULL)
        if tok.is_keyword("select"):
            return self.parse_sfw()
        if tok.is_keyword("exists") or tok.is_keyword("forall"):
            return self.parse_quantifier()
        if tok.kind == TokenKind.KEYWORD and tok.text in _AGG_KEYWORDS:
            self.advance()
            self.expect_symbol("(")
            operand = self.parse_expr()
            self.expect_symbol(")")
            return Agg(_AGG_KEYWORDS[tok.text], operand)
        if tok.is_keyword("unnest"):
            self.advance()
            self.expect_symbol("(")
            operand = self.parse_expr()
            self.expect_symbol(")")
            return UnnestExpr(operand)
        if tok.is_keyword("tag") or tok.is_keyword("payload"):
            self.advance()
            self.expect_symbol("(")
            operand = self.parse_expr()
            self.expect_symbol(")")
            return TagOf(operand) if tok.text == "tag" else PayloadOf(operand)
        if tok.kind == TokenKind.IDENT:
            self.advance()
            return Var(tok.text)
        if (
            tok.is_symbol("<")
            and self.peek(1).kind == TokenKind.IDENT
            and self.peek(2).is_symbol(":")
        ):
            # Variant constructor: < tag : expr >. The payload is parsed at
            # additive precedence so the closing '>' is not mistaken for a
            # comparison; parenthesize boolean payloads: <ok: (a = b)>.
            self.advance()
            tag = self.expect_ident()
            self.expect_symbol(":")
            value = self.parse_additive()
            self.expect_symbol(">")
            return VariantExpr(tag, value)
        if tok.is_symbol("{"):
            return self.parse_set()
        if tok.is_symbol("["):
            return self.parse_list()
        if tok.is_symbol("("):
            # Lookahead: "( ident =" (but not "==") starts a tuple constructor.
            if (
                self.peek(1).kind == TokenKind.IDENT
                and self.peek(2).is_symbol("=")
            ):
                return self.parse_tuple()
            self.advance()
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
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
