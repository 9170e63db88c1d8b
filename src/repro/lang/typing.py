"""Static type checking for SFW expressions.

:func:`type_of` computes the type of an expression under a variable typing
environment and a table typing (extension name → row type). The translator
runs the checker first: classification of the predicate between query blocks
(Section 7 of the paper) depends on knowing whether attributes are
set-valued, and the algebra typing rules reuse the same machinery.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import NameError_, TypeCheckError
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
    SetExpr,
    SetOp,
    TagOf,
    TupleExpr,
    UnnestExpr,
    Var,
    VariantExpr,
)
from repro.model.types import (
    ANY,
    BOOL,
    FLOAT,
    INT,
    STRING,
    AnyType,
    ListType,
    NullType,
    SetType,
    TupleType,
    Type,
    VariantType,
    is_numeric,
    type_of_value,
    unify,
)

__all__ = ["TypeEnv", "type_of", "check_boolean"]


class TypeEnv:
    """Immutable chain of variable typings plus a table typing.

    ``tables`` maps extension names to *row* types; a table reference has
    type ``SetType(row_type)``. ``params`` maps parameter names to the
    types of their bound values.
    """

    __slots__ = ("_bindings", "_parent", "tables", "params")

    def __init__(
        self,
        bindings: Mapping[str, Type] | None = None,
        parent: "TypeEnv | None" = None,
        tables: Mapping[str, Type] | None = None,
        params: Mapping[str, Type] | None = None,
    ):
        self._bindings = dict(bindings) if bindings else {}
        self._parent = parent
        if tables is not None:
            self.tables = dict(tables)
        elif parent is not None:
            self.tables = parent.tables
        else:
            self.tables = {}
        if params is not None:
            self.params = dict(params)
        elif parent is not None:
            self.params = parent.params
        else:
            self.params = {}

    def bind(self, name: str, type_: Type) -> "TypeEnv":
        return TypeEnv({name: type_}, self)

    def lookup(self, name: str) -> Type | None:
        env: TypeEnv | None = self
        while env is not None:
            if name in env._bindings:
                return env._bindings[name]
            env = env._parent
        return None

    @staticmethod
    def with_tables(
        tables: Mapping[str, Type], params: Mapping[str, Type] | None = None
    ) -> "TypeEnv":
        return TypeEnv(tables=tables, params=params)


def type_of(expr: Expr, env: TypeEnv | None = None) -> Type:
    """The type of *expr*; raises :class:`TypeCheckError` if ill-typed."""
    env = env if env is not None else TypeEnv()
    return _type(expr, env)


def check_boolean(expr: Expr, env: TypeEnv) -> None:
    t = _type(expr, env)
    if not isinstance(t, AnyType) and t != BOOL:
        raise TypeCheckError(f"expected boolean predicate, got {t!r}")


def _type(e: Expr, env: TypeEnv) -> Type:
    if isinstance(e, Const):
        return type_of_value(e.value)
    if isinstance(e, Var):
        bound = env.lookup(e.name)
        if bound is not None:
            return bound
        if e.name in env.tables:
            return SetType(env.tables[e.name])
        raise TypeCheckError(f"unbound variable or unknown table {e.name!r}")
    if isinstance(e, Attr):
        base = _type(e.base, env)
        if isinstance(base, AnyType):
            return ANY
        if not isinstance(base, TupleType):
            raise TypeCheckError(f"attribute .{e.label} on non-tuple type {base!r}")
        if e.label not in base.fields:
            raise TypeCheckError(f"tuple type {base!r} has no field {e.label!r}")
        return base.fields[e.label]
    if isinstance(e, TupleExpr):
        return TupleType({label: _type(v, env) for label, v in e.fields})
    if isinstance(e, SetExpr):
        return SetType(_element_type(e.items, env, "set literal"))
    if isinstance(e, ListExpr):
        return ListType(_element_type(e.items, env, "list literal"))
    if isinstance(e, VariantExpr):
        return VariantType({e.tag: _type(e.value, env)})
    if isinstance(e, Not):
        check_boolean(e.operand, env)
        return BOOL
    if isinstance(e, (And, Or)):
        for item in e.items:
            check_boolean(item, env)
        return BOOL
    if isinstance(e, Cmp):
        return _type_cmp(e, env)
    if isinstance(e, Arith):
        return _type_arith(e, env)
    if isinstance(e, Neg):
        t = _type(e.operand, env)
        if isinstance(t, AnyType):
            return ANY
        if not is_numeric(t):
            raise TypeCheckError(f"unary minus on non-numeric type {t!r}")
        return t
    if isinstance(e, SetOp):
        lt = _type(e.left, env)
        rt = _type(e.right, env)
        lt = SetType(ANY) if isinstance(lt, AnyType) else lt
        rt = SetType(ANY) if isinstance(rt, AnyType) else rt
        if not isinstance(lt, SetType) or not isinstance(rt, SetType):
            raise TypeCheckError(f"set operation on non-sets: {lt!r}, {rt!r}")
        elem = unify(lt.element, rt.element)
        if elem is None:
            raise TypeCheckError(f"set operation over incompatible elements: {lt!r}, {rt!r}")
        return SetType(elem)
    if isinstance(e, Agg):
        return _type_agg(e, env)
    if isinstance(e, Quant):
        domain = _type(e.domain, env)
        elem = _collection_element(domain, "quantifier domain")
        check_boolean(e.pred, env.bind(e.var, elem))
        return BOOL
    if isinstance(e, SFW):
        source = _type(e.source, env)
        elem = _collection_element(source, "FROM clause operand")
        inner = env.bind(e.var, elem)
        if e.where is not None:
            check_boolean(e.where, inner)
        return SetType(_type(e.select, inner))
    if isinstance(e, TagOf):
        t = _type(e.operand, env)
        if not isinstance(t, (VariantType, AnyType)):
            raise TypeCheckError(f"TAG of non-variant type {t!r}")
        return STRING
    if isinstance(e, PayloadOf):
        t = _type(e.operand, env)
        if isinstance(t, AnyType):
            return ANY
        if not isinstance(t, VariantType):
            raise TypeCheckError(f"PAYLOAD of non-variant type {t!r}")
        payload: Type | None = None
        for case_type in t.cases.values():
            payload = case_type if payload is None else unify(payload, case_type)
            if payload is None:
                return ANY  # incompatible cases: statically unknown
        return payload if payload is not None else ANY
    if isinstance(e, UnnestExpr):
        t = _type(e.operand, env)
        if isinstance(t, AnyType):
            return SetType(ANY)
        if not isinstance(t, SetType):
            raise TypeCheckError(f"UNNEST on non-set type {t!r}")
        inner = t.element
        if isinstance(inner, AnyType):
            return SetType(ANY)
        if not isinstance(inner, SetType):
            raise TypeCheckError(f"UNNEST requires a set of sets, got {t!r}")
        return SetType(inner.element)
    if isinstance(e, Param):
        bound = env.params.get(e.name)
        if bound is None:
            raise NameError_(f"unbound query parameter ${e.name}")
        return bound
    raise TypeCheckError(f"cannot type {type(e).__name__}")


def _element_type(items, env: TypeEnv, what: str) -> Type:
    elem: Type | None = None
    for item in items:
        t = _type(item, env)
        u = t if elem is None else unify(elem, t)
        if u is None:
            raise TypeCheckError(f"{what} mixes incompatible element types {elem!r} and {t!r}")
        elem = u
    return ANY if elem is None else elem


def _collection_element(t: Type, what: str) -> Type:
    if isinstance(t, AnyType):
        return ANY
    if isinstance(t, (SetType, ListType)):
        return t.element
    raise TypeCheckError(f"{what} must be a set or list, got {t!r}")


_ORDER_OPS = (CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE)
_INCLUSION_OPS = (CmpOp.SUBSET, CmpOp.SUBSETEQ, CmpOp.SUPSET, CmpOp.SUPSETEQ)


def _type_cmp(e: Cmp, env: TypeEnv) -> Type:
    lt = _type(e.left, env)
    rt = _type(e.right, env)
    if e.op in (CmpOp.EQ, CmpOp.NE):
        if unify(lt, rt) is None:
            raise TypeCheckError(f"cannot compare {lt!r} with {rt!r}")
        return BOOL
    if e.op in _ORDER_OPS:
        ordered = (
            (is_numeric(lt) or isinstance(lt, (AnyType, NullType)))
            and (is_numeric(rt) or isinstance(rt, (AnyType, NullType)))
        ) or (lt == STRING and rt == STRING)
        if not ordered and not (isinstance(lt, AnyType) or isinstance(rt, AnyType)):
            raise TypeCheckError(f"ordering comparison over {lt!r} and {rt!r}")
        return BOOL
    if e.op in (CmpOp.IN, CmpOp.NOT_IN):
        elem = _collection_element(rt, f"right operand of {e.op.value.upper()}")
        if unify(lt, elem) is None:
            raise TypeCheckError(f"membership of {lt!r} in collection of {elem!r}")
        return BOOL
    if e.op in _INCLUSION_OPS:
        lset = SetType(ANY) if isinstance(lt, AnyType) else lt
        rset = SetType(ANY) if isinstance(rt, AnyType) else rt
        if not isinstance(lset, SetType) or not isinstance(rset, SetType):
            raise TypeCheckError(f"set inclusion over non-sets: {lt!r}, {rt!r}")
        if unify(lset.element, rset.element) is None:
            raise TypeCheckError(f"set inclusion over incompatible elements: {lt!r}, {rt!r}")
        return BOOL
    raise TypeCheckError(f"unknown comparison operator {e.op}")  # pragma: no cover


def _type_arith(e: Arith, env: TypeEnv) -> Type:
    lt = _type(e.left, env)
    rt = _type(e.right, env)
    if e.op == ArithOp.ADD and lt == STRING and rt == STRING:
        return STRING
    for t in (lt, rt):
        if not is_numeric(t) and not isinstance(t, (AnyType, NullType)):
            raise TypeCheckError(f"arithmetic {e.op.value} on non-numeric type {t!r}")
    if e.op == ArithOp.DIV:
        return FLOAT
    if lt == FLOAT or rt == FLOAT:
        return FLOAT
    if isinstance(lt, AnyType) or isinstance(rt, AnyType):
        return ANY
    return INT


def _type_agg(e: Agg, env: TypeEnv) -> Type:
    t = _type(e.operand, env)
    elem = _collection_element(t, f"{e.func.value} operand")
    if e.func == AggFunc.COUNT:
        return INT
    if e.func in (AggFunc.SUM, AggFunc.AVG):
        if not is_numeric(elem) and not isinstance(elem, (AnyType, NullType)):
            raise TypeCheckError(f"{e.func.value} over non-numeric elements {elem!r}")
        return FLOAT if e.func == AggFunc.AVG else (elem if is_numeric(elem) else ANY)
    # MIN/MAX: numeric or string elements
    if not is_numeric(elem) and elem != STRING and not isinstance(elem, (AnyType, NullType)):
        raise TypeCheckError(f"{e.func.value} over unordered elements {elem!r}")
    return elem
