"""Closure compilation of expressions for the physical engine's hot paths.

The tree-walking interpreter (:mod:`repro.lang.eval`) re-dispatches on the
AST for every tuple; joins evaluate the same predicate millions of times.
:func:`compile_expr` translates an expression *once* into nested Python
closures over a plain ``dict`` environment, eliminating the dispatch.

Semantics are identical to the interpreter by construction and by test:
the reference executor keeps using the interpreter, so every differential
test (fuzz suite, Table 2 equivalences, join agreement) cross-checks the
compiler against it.

:func:`compiled` memoises compilation per expression object, keyed by
``id``. An entry lives exactly as long as its expression: it holds the
expression weakly and is dropped by the weak reference's callback, which
runs before the id can be reissued. Plans hold their expressions for as
long as they live, so a cached plan keeps hitting; a throwaway query's
entries go with its AST.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, Mapping

from repro.errors import ExecutionError, NameError_
from repro.lang.ast import (
    SFW,
    Agg,
    AggFunc,
    And,
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
from repro.lang.params import param_value
from repro.model.compare import compare, sort_key
from repro.model.values import Null, Tup, Variant

__all__ = ["compile_expr", "compiled", "CompiledExpr"]

#: A compiled expression: (environment dict, table mapping) → value.
CompiledExpr = Callable[[dict, Mapping], Any]

_CACHE: dict[int, tuple[weakref.ref, CompiledExpr]] = {}


def compiled(expr: Expr) -> CompiledExpr:
    """Memoised :func:`compile_expr`; the entry dies with *expr*."""
    key = id(expr)
    entry = _CACHE.get(key)
    if entry is not None and entry[0]() is expr:
        return entry[1]
    fn = compile_expr(expr)
    _CACHE[key] = (weakref.ref(expr, lambda _ref: _CACHE.pop(key, None)), fn)
    return fn


def _resolve_table(tables: Mapping, name: str) -> Any:
    if tables is not None and name in tables:
        value = tables[name]
        as_set = getattr(value, "as_set", None)
        return as_set() if callable(as_set) else value
    raise NameError_(f"unbound variable or unknown table {name!r}")


def _as_bool(v: Any) -> bool:
    if not isinstance(v, bool):
        raise ExecutionError(f"expected boolean, got {v!r}")
    return v


def _iterate(value: Any, what: str):
    if isinstance(value, (frozenset, tuple)):
        return value
    raise ExecutionError(f"{what} is not a collection: {value!r}")


def _require_set(value: Any, what: str) -> frozenset:
    if isinstance(value, frozenset):
        return value
    raise ExecutionError(f"{what} requires a set, got {value!r}")


def _require_number(value: Any, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(f"{what} requires a number, got {value!r}")


def compile_expr(e: Expr) -> CompiledExpr:
    """Translate *e* into a closure (see module docstring)."""
    if isinstance(e, Const):
        value = e.value
        return lambda env, tables: value
    if isinstance(e, Var):
        name = e.name
        def var_fn(env, tables, _name=name):
            if _name in env:
                return env[_name]
            return _resolve_table(tables, _name)
        return var_fn
    if isinstance(e, Attr):
        base = compile_expr(e.base)
        label = e.label
        def attr_fn(env, tables):
            v = base(env, tables)
            if not isinstance(v, Tup):
                raise ExecutionError(f"attribute access .{label} on non-tuple {v!r}")
            try:
                return v[label]
            except KeyError as exc:
                raise ExecutionError(str(exc)) from None
        return attr_fn
    if isinstance(e, TupleExpr):
        parts = [(label, compile_expr(v)) for label, v in e.fields]
        return lambda env, tables: Tup({label: fn(env, tables) for label, fn in parts})
    if isinstance(e, SetExpr):
        items = [compile_expr(i) for i in e.items]
        return lambda env, tables: frozenset(fn(env, tables) for fn in items)
    if isinstance(e, ListExpr):
        items = [compile_expr(i) for i in e.items]
        return lambda env, tables: tuple(fn(env, tables) for fn in items)
    if isinstance(e, VariantExpr):
        tag = e.tag
        value = compile_expr(e.value)
        return lambda env, tables: Variant(tag, value(env, tables))
    if isinstance(e, Not):
        operand = compile_expr(e.operand)
        return lambda env, tables: not _as_bool(operand(env, tables))
    if isinstance(e, And):
        items = [compile_expr(i) for i in e.items]
        def and_fn(env, tables):
            for fn in items:
                if not _as_bool(fn(env, tables)):
                    return False
            return True
        return and_fn
    if isinstance(e, Or):
        items = [compile_expr(i) for i in e.items]
        def or_fn(env, tables):
            for fn in items:
                if _as_bool(fn(env, tables)):
                    return True
            return False
        return or_fn
    if isinstance(e, Cmp):
        return _compile_cmp(e)
    if isinstance(e, Arith):
        return _compile_arith(e)
    if isinstance(e, Neg):
        operand = compile_expr(e.operand)
        def neg_fn(env, tables):
            v = operand(env, tables)
            _require_number(v, "unary minus")
            return -v
        return neg_fn
    if isinstance(e, SetOp):
        left = compile_expr(e.left)
        right = compile_expr(e.right)
        op = e.op
        def setop_fn(env, tables):
            l = _require_set(left(env, tables), "set operation")
            r = _require_set(right(env, tables), "set operation")
            if op == SetOpKind.UNION:
                return l | r
            if op == SetOpKind.INTERSECT:
                return l & r
            return l - r
        return setop_fn
    if isinstance(e, Agg):
        return _compile_agg(e)
    if isinstance(e, Quant):
        domain = compile_expr(e.domain)
        pred = compile_expr(e.pred)
        var = e.var
        exists = e.kind == QuantKind.EXISTS
        def quant_fn(env, tables):
            members = _iterate(domain(env, tables), "quantifier domain")
            for m in members:
                inner = dict(env)
                inner[var] = m
                if _as_bool(pred(inner, tables)):
                    if exists:
                        return True
                elif not exists:
                    return False
            return not exists
        return quant_fn
    if isinstance(e, SFW):
        source = compile_expr(e.source)
        select = compile_expr(e.select)
        where = compile_expr(e.where) if e.where is not None else None
        var = e.var
        def sfw_fn(env, tables):
            members = _iterate(source(env, tables), "FROM clause operand")
            out = set()
            for m in members:
                inner = dict(env)
                inner[var] = m
                if where is None or _as_bool(where(inner, tables)):
                    out.add(select(inner, tables))
            return frozenset(out)
        return sfw_fn
    if isinstance(e, UnnestExpr):
        operand = compile_expr(e.operand)
        def unnest_fn(env, tables):
            outer = _require_set(operand(env, tables), "UNNEST")
            out = set()
            for member in outer:
                out |= _require_set(member, "UNNEST member")
            return frozenset(out)
        return unnest_fn
    if isinstance(e, TagOf):
        operand = compile_expr(e.operand)
        def tag_fn(env, tables):
            v = operand(env, tables)
            if not isinstance(v, Variant):
                raise ExecutionError(f"TAG of non-variant {v!r}")
            return v.tag
        return tag_fn
    if isinstance(e, PayloadOf):
        operand = compile_expr(e.operand)
        def payload_fn(env, tables):
            v = operand(env, tables)
            if not isinstance(v, Variant):
                raise ExecutionError(f"PAYLOAD of non-variant {v!r}")
            return v.value
        return payload_fn
    if isinstance(e, Param):
        name = e.name
        return lambda env, tables: param_value(name)
    raise ExecutionError(f"cannot compile {type(e).__name__}")


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, Null) or isinstance(b, Null):
        return isinstance(a, Null) and isinstance(b, Null)
    return a == b


def _require_ordered(a: Any, b: Any) -> None:
    ok = (int, float, str)
    a_ok = isinstance(a, ok) and not isinstance(a, bool)
    b_ok = isinstance(b, ok) and not isinstance(b, bool)
    if not (a_ok and b_ok) or isinstance(a, str) != isinstance(b, str):
        raise ExecutionError(f"ordering comparison requires numbers or strings, got {a!r} and {b!r}")


def _compile_cmp(e: Cmp) -> CompiledExpr:
    left = compile_expr(e.left)
    right = compile_expr(e.right)
    op = e.op
    if op == CmpOp.EQ:
        return lambda env, tables: _values_equal(left(env, tables), right(env, tables))
    if op == CmpOp.NE:
        return lambda env, tables: not _values_equal(left(env, tables), right(env, tables))
    if op in (CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE):
        def order_fn(env, tables, _op=op):
            a = left(env, tables)
            b = right(env, tables)
            _require_ordered(a, b)
            c = compare(a, b)
            if _op == CmpOp.LT:
                return c < 0
            if _op == CmpOp.LE:
                return c <= 0
            if _op == CmpOp.GT:
                return c > 0
            return c >= 0
        return order_fn
    if op == CmpOp.IN:
        return lambda env, tables: left(env, tables) in _iterate(right(env, tables), "IN operand")
    if op == CmpOp.NOT_IN:
        return lambda env, tables: left(env, tables) not in _iterate(right(env, tables), "NOT IN operand")
    def incl_fn(env, tables, _op=op):
        l = _require_set(left(env, tables), f"{_op.value} operand")
        r = _require_set(right(env, tables), f"{_op.value} operand")
        if _op == CmpOp.SUBSETEQ:
            return l <= r
        if _op == CmpOp.SUBSET:
            return l < r
        if _op == CmpOp.SUPSETEQ:
            return l >= r
        return l > r
    return incl_fn


def _compile_arith(e: Arith) -> CompiledExpr:
    left = compile_expr(e.left)
    right = compile_expr(e.right)
    op = e.op
    def arith_fn(env, tables):
        a = left(env, tables)
        b = right(env, tables)
        if op == ArithOp.ADD and isinstance(a, str) and isinstance(b, str):
            return a + b
        _require_number(a, f"arithmetic {op.value}")
        _require_number(b, f"arithmetic {op.value}")
        if op == ArithOp.ADD:
            return a + b
        if op == ArithOp.SUB:
            return a - b
        if op == ArithOp.MUL:
            return a * b
        if op == ArithOp.DIV:
            if b == 0:
                raise ExecutionError("division by zero")
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return a / b
        if b == 0:
            raise ExecutionError("modulo by zero")
        return a % b
    return arith_fn


def _compile_agg(e: Agg) -> CompiledExpr:
    operand = compile_expr(e.operand)
    func = e.func
    def agg_fn(env, tables):
        members = list(_iterate(operand(env, tables), f"{func.value} operand"))
        if func == AggFunc.COUNT:
            return len(members)
        if func == AggFunc.SUM:
            for m in members:
                _require_number(m, "sum")
            return sum(members)
        if not members:
            raise ExecutionError(f"{func.value} of an empty collection is undefined")
        if func == AggFunc.AVG:
            for m in members:
                _require_number(m, "avg")
            return sum(members) / len(members)
        if func == AggFunc.MIN:
            return min(members, key=sort_key)
        return max(members, key=sort_key)
    return agg_fn
