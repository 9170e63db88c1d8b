"""Closure compilation of expressions for the physical engine's hot paths.

The tree-walking interpreter (:mod:`repro.lang.eval`) re-dispatches on the
AST for every tuple; joins evaluate the same predicate millions of times.
:func:`compile_expr` translates an expression *once* into nested Python
closures over a plain ``dict`` environment, eliminating the dispatch.

Everything that does not depend on the row is decided at compile time, so
the returned closure does only per-row work:

* an attribute chain rooted at a variable (``e.address.city``) is one
  closure over :func:`repro.model.values.walk_path`, which reads
  ``Tup._fields`` directly;
* a tuple constructor builds with :func:`repro.model.values.tup_of`, one
  ``isinstance`` per value (the labels were checked by the AST);
* ``EXISTS``/``FORALL`` copy the environment once per call, and for a
  predicate ``L = R`` whose ``R`` does not mention the bound variable
  evaluate ``R`` once per call, right after the first ``L``;
* comparisons, arithmetic, set operations and aggregates pick their
  operator and format their error text here, not per row.

Semantics are identical to the interpreter — values, exception types and
messages, and the order in which errors surface — by construction (both
check operands with the ``require_*`` helpers of
:mod:`repro.model.values` and compare with ``==``) and by test (``tests/lang/test_compile_parity.py`` and every differential suite
that runs the reference executor on the interpreter).

:func:`compiled` memoises compilation per expression object, keyed by
``id``. An entry lives exactly as long as its expression: it holds the
expression weakly and is dropped by the weak reference's callback, which
runs before the id can be reissued. Plans hold their expressions for as
long as they live, so a cached plan keeps hitting; a throwaway query's
entries go with its AST.
"""

from __future__ import annotations

import operator
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
    attr_path,
)
from repro.lang.freevars import free_vars
from repro.lang.params import param_value
from repro.model.compare import sort_key
from repro.model.values import (
    Tup,
    Variant,
    attr_of,
    require_bool,
    require_collection,
    require_number,
    require_ordered,
    require_set,
    tup_of,
    walk_path,
)

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


def compile_expr(e: Expr) -> CompiledExpr:
    """Translate *e* into a closure (see module docstring)."""
    if isinstance(e, Const):
        value = e.value
        return lambda env, tables: value
    if isinstance(e, (Var, Attr)):
        path = attr_path(e)
        if path is not None:
            return _compile_path(*path)
        base = compile_expr(e.base)
        label = e.label
        def attr_fn(env, tables):
            return attr_of(base(env, tables), label)
        return attr_fn
    if isinstance(e, TupleExpr):
        return _compile_tuple(e)
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
        return lambda env, tables: not require_bool(operand(env, tables))
    if isinstance(e, And):
        items = [compile_expr(i) for i in e.items]
        def and_fn(env, tables):
            for fn in items:
                if not require_bool(fn(env, tables)):
                    return False
            return True
        return and_fn
    if isinstance(e, Or):
        items = [compile_expr(i) for i in e.items]
        def or_fn(env, tables):
            for fn in items:
                if require_bool(fn(env, tables)):
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
            require_number(v, "unary minus")
            return -v
        return neg_fn
    if isinstance(e, SetOp):
        left = compile_expr(e.left)
        right = compile_expr(e.right)
        set_op = {
            SetOpKind.UNION: operator.or_,
            SetOpKind.INTERSECT: operator.and_,
            SetOpKind.DIFF: operator.sub,
        }[e.op]
        def setop_fn(env, tables):
            l = require_set(left(env, tables), "set operation")
            return set_op(l, require_set(right(env, tables), "set operation"))
        return setop_fn
    if isinstance(e, Agg):
        return _compile_agg(e)
    if isinstance(e, Quant):
        return _compile_quant(e)
    if isinstance(e, SFW):
        source = compile_expr(e.source)
        select = compile_expr(e.select)
        where = compile_expr(e.where) if e.where is not None else None
        var = e.var
        def sfw_fn(env, tables):
            members = require_collection(source(env, tables), "FROM clause operand")
            inner = dict(env)
            out = set()
            for m in members:
                inner[var] = m
                if where is None or require_bool(where(inner, tables)):
                    out.add(select(inner, tables))
            return frozenset(out)
        return sfw_fn
    if isinstance(e, UnnestExpr):
        operand = compile_expr(e.operand)
        def unnest_fn(env, tables):
            outer = require_set(operand(env, tables), "UNNEST")
            out = set()
            for member in outer:
                out |= require_set(member, "UNNEST member")
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


def _compile_path(root: str, labels: tuple[str, ...]) -> CompiledExpr:
    """``root.l1.l2…`` as one closure reading fields directly."""
    if not labels:
        def var_fn(env, tables):
            try:
                return env[root]
            except KeyError:
                return _resolve_table(tables, root)
        return var_fn
    def chain_fn(env, tables):
        try:
            v = env[root]
        except KeyError:
            v = _resolve_table(tables, root)
        return walk_path(v, labels)
    return chain_fn


def _compile_tuple(e: TupleExpr) -> CompiledExpr:
    parts = [(label, compile_expr(v)) for label, v in e.fields]
    if not all(isinstance(label, str) and label for label, _ in parts):
        # Labels the constructor rejects: let it raise, as the interpreter does.
        return lambda env, tables: Tup({label: fn(env, tables) for label, fn in parts})
    return lambda env, tables: tup_of({label: fn(env, tables) for label, fn in parts})


def _compile_quant(e: Quant) -> CompiledExpr:
    domain = compile_expr(e.domain)
    var = e.var
    exists = e.kind == QuantKind.EXISTS
    pred = e.pred
    if isinstance(pred, Cmp) and pred.op == CmpOp.EQ and var not in free_vars(pred.right):
        # ``L = R`` with R invariant over the members: R is evaluated once,
        # right after the first L, exactly where the interpreter first
        # evaluates it — an empty domain evaluates neither.
        member = compile_expr(pred.left)
        invariant = compile_expr(pred.right)
        def quant_eq_fn(env, tables):
            members = require_collection(domain(env, tables), "quantifier domain")
            inner = dict(env)
            pending = True
            for m in members:
                inner[var] = m
                value = member(inner, tables)
                if pending:
                    other = invariant(inner, tables)
                    pending = False
                if (value == other) == exists:
                    return exists
            return not exists
        return quant_eq_fn
    body = compile_expr(pred)
    def quant_fn(env, tables):
        members = require_collection(domain(env, tables), "quantifier domain")
        inner = dict(env)
        for m in members:
            inner[var] = m
            if require_bool(body(inner, tables)) == exists:
                return exists
        return not exists
    return quant_fn


#: Ordering operators once both sides are numbers or both strings: the
#: total order of :func:`repro.model.compare.compare` on those is Python's,
#: with NaN comparing equal to everything (so ``<=`` is ``not >``).
_ORDER = {
    CmpOp.LT: operator.lt,
    CmpOp.LE: lambda a, b: not a > b,
    CmpOp.GT: operator.gt,
    CmpOp.GE: lambda a, b: not a < b,
}

_INCLUSION = {
    CmpOp.SUBSETEQ: operator.le,
    CmpOp.SUBSET: operator.lt,
    CmpOp.SUPSETEQ: operator.ge,
    CmpOp.SUPSET: operator.gt,
}


def _compile_cmp(e: Cmp) -> CompiledExpr:
    left = compile_expr(e.left)
    right = compile_expr(e.right)
    op = e.op
    if op == CmpOp.EQ:
        return lambda env, tables: left(env, tables) == right(env, tables)
    if op == CmpOp.NE:
        return lambda env, tables: not left(env, tables) == right(env, tables)
    if op in _ORDER:
        order = _ORDER[op]
        def order_fn(env, tables):
            a = left(env, tables)
            b = right(env, tables)
            require_ordered(a, b)
            return order(a, b)
        return order_fn
    if op == CmpOp.IN:
        return lambda env, tables: left(env, tables) in require_collection(right(env, tables), "IN operand")
    if op == CmpOp.NOT_IN:
        return lambda env, tables: left(env, tables) not in require_collection(right(env, tables), "NOT IN operand")
    inclusion = _INCLUSION[op]
    what = f"{op.value} operand"
    def incl_fn(env, tables):
        l = left(env, tables)
        r = right(env, tables)
        return inclusion(require_set(l, what), require_set(r, what))
    return incl_fn


def _compile_arith(e: Arith) -> CompiledExpr:
    left = compile_expr(e.left)
    right = compile_expr(e.right)
    op = e.op
    what = f"arithmetic {op.value}"
    if op == ArithOp.ADD:
        def add_fn(env, tables):
            a = left(env, tables)
            b = right(env, tables)
            if isinstance(a, str) and isinstance(b, str):
                return a + b
            require_number(a, what)
            require_number(b, what)
            return a + b
        return add_fn
    if op == ArithOp.DIV:
        def div_fn(env, tables):
            a = left(env, tables)
            b = right(env, tables)
            require_number(a, what)
            require_number(b, what)
            if b == 0:
                raise ExecutionError("division by zero")
            if isinstance(a, int) and isinstance(b, int) and a % b == 0:
                return a // b
            return a / b
        return div_fn
    if op == ArithOp.MOD:
        def mod_fn(env, tables):
            a = left(env, tables)
            b = right(env, tables)
            require_number(a, what)
            require_number(b, what)
            if b == 0:
                raise ExecutionError("modulo by zero")
            return a % b
        return mod_fn
    py_op = operator.sub if op == ArithOp.SUB else operator.mul
    def arith_fn(env, tables):
        a = left(env, tables)
        b = right(env, tables)
        require_number(a, what)
        require_number(b, what)
        return py_op(a, b)
    return arith_fn


def _compile_agg(e: Agg) -> CompiledExpr:
    operand = compile_expr(e.operand)
    func = e.func
    what = f"{func.value} operand"
    if func == AggFunc.COUNT:
        return lambda env, tables: len(require_collection(operand(env, tables), what))
    if func == AggFunc.SUM:
        def sum_fn(env, tables):
            members = require_collection(operand(env, tables), what)
            for m in members:
                require_number(m, "sum")
            return sum(members)
        return sum_fn
    empty = f"{func.value} of an empty collection is undefined"
    if func == AggFunc.AVG:
        def avg_fn(env, tables):
            members = require_collection(operand(env, tables), what)
            if not members:
                raise ExecutionError(empty)
            for m in members:
                require_number(m, "avg")
            return sum(members) / len(members)
        return avg_fn
    extreme = min if func == AggFunc.MIN else max
    def extreme_fn(env, tables):
        members = require_collection(operand(env, tables), what)
        if not members:
            raise ExecutionError(empty)
        return extreme(members, key=sort_key)
    return extreme_fn
