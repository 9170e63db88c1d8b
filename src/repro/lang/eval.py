"""Direct interpreter for the SFW expression language.

This interpreter defines the *semantics* of the language, and therefore is
the correctness oracle for every transformation in the library: it evaluates
nested queries by naive nested-loop processing, exactly the strategy the
paper says "gives correct results but may be very inefficient" (Section 6).

Evaluation needs:

* an environment binding iteration variables to values, and
* a table lookup (extension name → set of row tuples), supplied by any
  mapping — typically a :class:`repro.engine.table.Catalog`.
"""

from __future__ import annotations

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
from repro.model.values import (
    Tup,
    Variant,
    attr_of,
    require_bool,
    require_collection,
    require_number,
    require_ordered,
    require_set,
)

__all__ = ["Env", "evaluate", "evaluate_predicate"]


class Env:
    """An immutable chain of variable bindings."""

    __slots__ = ("_bindings", "_parent")

    def __init__(self, bindings: Mapping[str, Any] | None = None, parent: "Env | None" = None):
        self._bindings = dict(bindings) if bindings else {}
        self._parent = parent

    def bind(self, name: str, value: Any) -> "Env":
        """A child environment with one extra binding."""
        return Env({name: value}, self)

    def lookup(self, name: str) -> Any:
        env: Env | None = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        raise NameError_(f"unbound variable {name!r}")

    def __contains__(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env._bindings:
                return True
            env = env._parent
        return False

    @staticmethod
    def empty() -> "Env":
        return Env()


TableLookup = Callable[[str], Any]


def _resolve_var(name: str, env: Env, tables: Mapping[str, Any] | None) -> Any:
    if name in env:
        return env.lookup(name)
    if tables is not None and name in tables:
        value = tables[name]
        # Catalog tables expose .as_set(); plain mappings may hold values.
        as_set = getattr(value, "as_set", None)
        return as_set() if callable(as_set) else value
    raise NameError_(f"unbound variable or unknown table {name!r}")


def evaluate(expr: Expr, env: Env | None = None, tables: Mapping[str, Any] | None = None) -> Any:
    """Evaluate *expr* to a model value.

    ``tables`` maps extension names to either frozensets of rows or objects
    with an ``as_set()`` method (e.g. :class:`repro.engine.table.Table`).
    """
    env = env if env is not None else Env.empty()
    return _eval(expr, env, tables)


def evaluate_predicate(expr: Expr, env: Env, tables: Mapping[str, Any] | None = None) -> bool:
    """Evaluate *expr* and require a boolean result."""
    result = _eval(expr, env, tables)
    if not isinstance(result, bool):
        raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
    return result


def _eval(e: Expr, env: Env, tables: Mapping[str, Any] | None) -> Any:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return _resolve_var(e.name, env, tables)
    if isinstance(e, Attr):
        return attr_of(_eval(e.base, env, tables), e.label)
    if isinstance(e, TupleExpr):
        return Tup({label: _eval(v, env, tables) for label, v in e.fields})
    if isinstance(e, SetExpr):
        return frozenset(_eval(item, env, tables) for item in e.items)
    if isinstance(e, ListExpr):
        return tuple(_eval(item, env, tables) for item in e.items)
    if isinstance(e, VariantExpr):
        return Variant(e.tag, _eval(e.value, env, tables))
    if isinstance(e, Not):
        return not _eval_bool(e.operand, env, tables)
    if isinstance(e, And):
        return all(_eval_bool(item, env, tables) for item in e.items)
    if isinstance(e, Or):
        return any(_eval_bool(item, env, tables) for item in e.items)
    if isinstance(e, Cmp):
        return _eval_cmp(e, env, tables)
    if isinstance(e, Arith):
        return _eval_arith(e, env, tables)
    if isinstance(e, Neg):
        v = _eval(e.operand, env, tables)
        require_number(v, "unary minus")
        return -v
    if isinstance(e, SetOp):
        left = require_set(_eval(e.left, env, tables), "set operation")
        right = require_set(_eval(e.right, env, tables), "set operation")
        if e.op == SetOpKind.UNION:
            return left | right
        if e.op == SetOpKind.INTERSECT:
            return left & right
        return left - right
    if isinstance(e, Agg):
        return _eval_agg(e, env, tables)
    if isinstance(e, Quant):
        domain = _eval(e.domain, env, tables)
        members = require_collection(domain, "quantifier domain")
        if e.kind == QuantKind.EXISTS:
            return any(_eval_bool(e.pred, env.bind(e.var, m), tables) for m in members)
        return all(_eval_bool(e.pred, env.bind(e.var, m), tables) for m in members)
    if isinstance(e, SFW):
        source = _eval(e.source, env, tables)
        members = require_collection(source, "FROM clause operand")
        out = set()
        for m in members:
            inner = env.bind(e.var, m)
            if e.where is None or _eval_bool(e.where, inner, tables):
                out.add(_eval(e.select, inner, tables))
        return frozenset(out)
    if isinstance(e, UnnestExpr):
        outer = require_set(_eval(e.operand, env, tables), "UNNEST")
        out = set()
        for member in outer:
            out |= require_set(member, "UNNEST member")
        return frozenset(out)
    if isinstance(e, TagOf):
        v = _eval(e.operand, env, tables)
        if not isinstance(v, Variant):
            raise ExecutionError(f"TAG of non-variant {v!r}")
        return v.tag
    if isinstance(e, PayloadOf):
        v = _eval(e.operand, env, tables)
        if not isinstance(v, Variant):
            raise ExecutionError(f"PAYLOAD of non-variant {v!r}")
        return v.value
    if isinstance(e, Param):  # rare: last, so other nodes pay no extra test
        return param_value(e.name)
    raise ExecutionError(f"cannot evaluate {type(e).__name__}")


def _eval_bool(e: Expr, env: Env, tables) -> bool:
    return require_bool(_eval(e, env, tables))


def _eval_cmp(e: Cmp, env: Env, tables) -> bool:
    left = _eval(e.left, env, tables)
    right = _eval(e.right, env, tables)
    op = e.op
    # ``==`` is the language's equality: NULL = NULL (see values.Null), mixed
    # numeric types compare numerically, everything else structurally.
    if op == CmpOp.EQ:
        return left == right
    if op == CmpOp.NE:
        return not left == right
    if op in (CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE):
        require_ordered(left, right)
        c = compare(left, right)
        if op == CmpOp.LT:
            return c < 0
        if op == CmpOp.LE:
            return c <= 0
        if op == CmpOp.GT:
            return c > 0
        return c >= 0
    if op == CmpOp.IN:
        return left in require_collection(right, "IN operand")
    if op == CmpOp.NOT_IN:
        return left not in require_collection(right, "NOT IN operand")
    lset = require_set(left, f"{op.value} operand")
    rset = require_set(right, f"{op.value} operand")
    if op == CmpOp.SUBSETEQ:
        return lset <= rset
    if op == CmpOp.SUBSET:
        return lset < rset
    if op == CmpOp.SUPSETEQ:
        return lset >= rset
    if op == CmpOp.SUPSET:
        return lset > rset
    raise ExecutionError(f"unknown comparison {op}")  # pragma: no cover


def _eval_arith(e: Arith, env: Env, tables) -> Any:
    left = _eval(e.left, env, tables)
    right = _eval(e.right, env, tables)
    op = e.op
    if op == ArithOp.ADD and isinstance(left, str) and isinstance(right, str):
        return left + right
    require_number(left, f"arithmetic {op.value}")
    require_number(right, f"arithmetic {op.value}")
    if op == ArithOp.ADD:
        return left + right
    if op == ArithOp.SUB:
        return left - right
    if op == ArithOp.MUL:
        return left * right
    if op == ArithOp.DIV:
        if right == 0:
            raise ExecutionError("division by zero")
        result = left / right
        # Exact integer division stays integral (keeps INT typing honest).
        if isinstance(left, int) and isinstance(right, int) and left % right == 0:
            return left // right
        return result
    if op == ArithOp.MOD:
        if right == 0:
            raise ExecutionError("modulo by zero")
        return left % right
    raise ExecutionError(f"unknown arithmetic operator {op}")  # pragma: no cover


def _eval_agg(e: Agg, env: Env, tables) -> Any:
    operand = _eval(e.operand, env, tables)
    members = list(require_collection(operand, f"{e.func.value} operand"))
    if e.func == AggFunc.COUNT:
        return len(members)
    if e.func == AggFunc.SUM:
        # SUM(∅) = 0, mirroring COUNT(∅) = 0: both make the dangling-tuple
        # discussion of the paper crisp without a NULL.
        for m in members:
            require_number(m, "sum")
        return sum(members)
    if not members:
        raise ExecutionError(f"{e.func.value} of an empty collection is undefined")
    if e.func == AggFunc.AVG:
        for m in members:
            require_number(m, "avg")
        return sum(members) / len(members)
    if e.func == AggFunc.MIN:
        return min(members, key=sort_key)
    return max(members, key=sort_key)
