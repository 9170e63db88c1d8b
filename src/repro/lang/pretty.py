"""Unparser: render an AST back to concrete syntax.

``parse(pretty(e)) == e`` holds for every expression the parser can produce
(tested property-style); the renderer is conservative with parentheses.
"""

from __future__ import annotations

from repro.lang.ast import (
    SFW,
    Agg,
    And,
    Arith,
    Attr,
    Cmp,
    CmpOp,
    Const,
    Expr,
    ListExpr,
    Neg,
    Not,
    Or,
    Param,
    PayloadOf,
    Quant,
    QuantKind,
    SetExpr,
    SetOp,
    SetOpKind,
    TagOf,
    TupleExpr,
    UnnestExpr,
    Var,
    VariantExpr,
)
from repro.model.compare import sort_key
from repro.model.values import NULL, Tup, Variant

__all__ = ["pretty"]

_CMP_TEXT = {
    CmpOp.EQ: "=",
    CmpOp.NE: "<>",
    CmpOp.LT: "<",
    CmpOp.LE: "<=",
    CmpOp.GT: ">",
    CmpOp.GE: ">=",
    CmpOp.IN: "IN",
    CmpOp.NOT_IN: "NOT IN",
    CmpOp.SUBSET: "SUBSET",
    CmpOp.SUBSETEQ: "SUBSETEQ",
    CmpOp.SUPSET: "SUPSET",
    CmpOp.SUPSETEQ: "SUPSETEQ",
}

_SETOP_TEXT = {
    SetOpKind.UNION: "UNION",
    SetOpKind.INTERSECT: "INTERSECT",
    SetOpKind.DIFF: "DIFF",
}


def pretty(expr: Expr) -> str:
    """Render *expr* as parseable concrete syntax (single line)."""
    return _render(expr)


def _const_text(value) -> str:
    if value is NULL or isinstance(value, type(NULL)):
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, frozenset):
        members = sorted(value, key=sort_key)
        return "{" + ", ".join(_const_text(m) for m in members) + "}"
    if isinstance(value, tuple):
        return "[" + ", ".join(_const_text(m) for m in value) + "]"
    if isinstance(value, Tup):
        return "(" + ", ".join(f"{k} = {_const_text(v)}" for k, v in value.items()) + ")"
    if isinstance(value, Variant):  # no parser syntax; render for debugging only
        return f"<{value.tag}: {_const_text(value.value)}>"
    raise TypeError(f"cannot render constant {value!r}")


def _render(e: Expr) -> str:
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Attr):
        base = _render(e.base)
        if isinstance(e.base, (Var, Attr)):
            return f"{base}.{e.label}"
        return f"({base}).{e.label}"
    if isinstance(e, TupleExpr):
        return "(" + ", ".join(f"{label} = {_render(v)}" for label, v in e.fields) + ")"
    if isinstance(e, SetExpr):
        return "{" + ", ".join(_render(item) for item in e.items) + "}"
    if isinstance(e, ListExpr):
        return "[" + ", ".join(_render(item) for item in e.items) + "]"
    if isinstance(e, VariantExpr):
        # Payloads parse at additive precedence; parenthesize the rest.
        return f"<{e.tag}: {_paren_operand(e.value)}>"
    if isinstance(e, Not):
        return f"NOT ({_render(e.operand)})"
    if isinstance(e, And):
        return " AND ".join(_paren_bool(item) for item in e.items)
    if isinstance(e, Or):
        return " OR ".join(_paren_bool(item) for item in e.items)
    if isinstance(e, Cmp):
        return f"{_paren_operand(e.left)} {_CMP_TEXT[e.op]} {_paren_operand(e.right)}"
    if isinstance(e, Arith):
        return f"({_render(e.left)} {e.op.value} {_render(e.right)})"
    if isinstance(e, Neg):
        return f"-({_render(e.operand)})"
    if isinstance(e, SetOp):
        return f"({_render(e.left)} {_SETOP_TEXT[e.op]} {_render(e.right)})"
    if isinstance(e, Agg):
        return f"{e.func.value.upper()}({_render(e.operand)})"
    if isinstance(e, Quant):
        kind = "EXISTS" if e.kind == QuantKind.EXISTS else "FORALL"
        return f"{kind} {e.var} IN {_paren_operand(e.domain)} ({_render(e.pred)})"
    if isinstance(e, SFW):
        parts = [f"SELECT {_render(e.select)}", f"FROM {_paren_operand(e.source)} {e.var}"]
        if e.where is not None:
            parts.append(f"WHERE {_render(e.where)}")
        return "(" + " ".join(parts) + ")"
    if isinstance(e, UnnestExpr):
        return f"UNNEST({_render(e.operand)})"
    if isinstance(e, TagOf):
        return f"TAG({_render(e.operand)})"
    if isinstance(e, PayloadOf):
        return f"PAYLOAD({_render(e.operand)})"
    if isinstance(e, Param):
        return f"${e.name}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _paren_bool(e: Expr) -> str:
    text = _render(e)
    if isinstance(e, (Or, And)):
        return f"({text})"
    return text


def _paren_operand(e: Expr) -> str:
    text = _render(e)
    # Comparison operands that are themselves comparisons/booleans need parens.
    if isinstance(e, (Cmp, And, Or, Not, Quant)):
        return f"({text})"
    return text
