"""Abstract syntax for the TM-like SFW expression language.

The language is *orthogonal* in the sense of the paper (Section 3.2): the
operand of a SELECT-FROM-WHERE block, its result expression, and its
predicate are all arbitrary expressions, so SFW blocks nest freely in the
SELECT clause, the FROM clause, and the WHERE clause.

Every node is an immutable, hashable dataclass; generic traversal
(:func:`children`, :func:`walk`, :func:`transform`) and capture-avoiding
substitution (:func:`substitute`) are provided here so that the normalizer,
the classifier, and the unnesting translator all share one toolkit.

The paper's WITH clause (local definitions) is parsed away by substitution;
it is notational convenience only, so the AST has no Let node.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Iterator

from repro.errors import ValueModelError
from repro.model.values import is_value, make_value, value_repr

__all__ = [
    "Expr",
    "Const",
    "Param",
    "Var",
    "Attr",
    "TupleExpr",
    "SetExpr",
    "ListExpr",
    "VariantExpr",
    "Not",
    "And",
    "Or",
    "Cmp",
    "CmpOp",
    "Arith",
    "ArithOp",
    "Neg",
    "SetOp",
    "SetOpKind",
    "Agg",
    "AggFunc",
    "Quant",
    "QuantKind",
    "SFW",
    "UnnestExpr",
    "TagOf",
    "PayloadOf",
    "TRUE",
    "FALSE",
    "EMPTY_SET",
    "children",
    "walk",
    "transform",
    "substitute",
    "rename_var",
    "conjuncts",
    "make_and",
    "make_or",
    "negate",
    "is_true_const",
    "is_false_const",
    "fresh_name",
    "contains_sfw",
    "param_names",
    "attr_path",
]


class Expr:
    """Abstract base class for expressions."""

    __slots__ = ()


class CmpOp(enum.Enum):
    """Binary comparison and set-predicate operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "in"
    NOT_IN = "not in"
    SUBSET = "subset"  # proper subset ⊂
    SUBSETEQ = "subseteq"  # ⊆
    SUPSET = "supset"  # proper superset ⊃
    SUPSETEQ = "supseteq"  # ⊇


#: Negation table for comparison operators (used by the normalizer).
NEGATED_CMP = {
    CmpOp.EQ: CmpOp.NE,
    CmpOp.NE: CmpOp.EQ,
    CmpOp.LT: CmpOp.GE,
    CmpOp.GE: CmpOp.LT,
    CmpOp.GT: CmpOp.LE,
    CmpOp.LE: CmpOp.GT,
    CmpOp.IN: CmpOp.NOT_IN,
    CmpOp.NOT_IN: CmpOp.IN,
}

#: Mirror table: ``a OP b`` ≡ ``b mirror(OP) a`` (comparison operators only).
MIRRORED_CMP = {
    CmpOp.EQ: CmpOp.EQ,
    CmpOp.NE: CmpOp.NE,
    CmpOp.LT: CmpOp.GT,
    CmpOp.GT: CmpOp.LT,
    CmpOp.LE: CmpOp.GE,
    CmpOp.GE: CmpOp.LE,
    CmpOp.SUBSET: CmpOp.SUPSET,
    CmpOp.SUPSET: CmpOp.SUBSET,
    CmpOp.SUBSETEQ: CmpOp.SUPSETEQ,
    CmpOp.SUPSETEQ: CmpOp.SUBSETEQ,
}


class ArithOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"


class SetOpKind(enum.Enum):
    UNION = "union"
    INTERSECT = "intersect"
    DIFF = "diff"


class AggFunc(enum.Enum):
    COUNT = "count"
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"


class QuantKind(enum.Enum):
    EXISTS = "exists"
    FORALL = "forall"


@dataclass(frozen=True)
class Const(Expr):
    """A literal model value."""

    value: Any

    def __post_init__(self):
        if not is_value(self.value):
            object.__setattr__(self, "value", make_value(self.value))

    def __repr__(self) -> str:
        return f"Const({value_repr(self.value)})"


@dataclass(frozen=True)
class Param(Expr):
    """A query parameter ``$name``: a closed scalar bound at execution.

    Every analysis treats it as an unknown constant — it has no free
    variables and matches no literal pattern — so one plan serves every
    binding; :mod:`repro.lang.params` supplies the value per execution.
    """

    name: str


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference (an iteration variable or a table extension name)."""

    name: str


@dataclass(frozen=True)
class Attr(Expr):
    """Attribute access ``base.label``."""

    base: Expr
    label: str


@dataclass(frozen=True)
class TupleExpr(Expr):
    """Tuple construction ``(a = e1, b = e2)``."""

    fields: tuple[tuple[str, Expr], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.fields]
        if len(set(labels)) != len(labels):
            raise ValueModelError(f"duplicate labels in tuple expression: {labels}")


@dataclass(frozen=True)
class SetExpr(Expr):
    """Set construction ``{e1, e2, ...}``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class ListExpr(Expr):
    """List construction ``[e1, e2, ...]``."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class VariantExpr(Expr):
    """Variant construction ``<tag: e>``."""

    tag: str
    value: Expr


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction (empty conjunction is TRUE)."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction (empty disjunction is FALSE)."""

    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Cmp(Expr):
    """Comparison or set predicate ``left OP right``."""

    op: CmpOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Arith(Expr):
    op: ArithOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    """Unary arithmetic negation."""

    operand: Expr


@dataclass(frozen=True)
class SetOp(Expr):
    """Set algebra: union, intersection, difference."""

    op: SetOpKind
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Agg(Expr):
    """Aggregate function applied to a collection-valued expression."""

    func: AggFunc
    operand: Expr


@dataclass(frozen=True)
class Quant(Expr):
    """Quantified predicate ``EXISTS v IN domain (pred)`` / ``FORALL ...``.

    ``var`` is bound in ``pred`` only.
    """

    kind: QuantKind
    var: str
    domain: Expr
    pred: Expr


@dataclass(frozen=True)
class SFW(Expr):
    """``SELECT select FROM source var WHERE where``; result is a set.

    ``var`` is bound in ``select`` and ``where``. ``where`` may be None
    (no predicate).
    """

    select: Expr
    var: str
    source: Expr
    where: Expr | None = None


@dataclass(frozen=True)
class UnnestExpr(Expr):
    """``UNNEST(e)``: collapse a set of sets, UNNEST(S) = ⋃{s | s ∈ S}."""

    operand: Expr


@dataclass(frozen=True)
class TagOf(Expr):
    """``TAG(e)``: the tag of a variant value, as a string."""

    operand: Expr


@dataclass(frozen=True)
class PayloadOf(Expr):
    """``PAYLOAD(e)``: the payload of a variant value.

    Together with :class:`TagOf` this eliminates variants without binders:
    ``CASE``-style dispatch is written as
    ``TAG(v) = 'ok' AND PAYLOAD(v) > 2``.
    """

    operand: Expr


TRUE = Const(True)
FALSE = Const(False)
EMPTY_SET = Const(frozenset())


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------

#: How a dataclass field holds sub-expressions: one (``Expr``, or ``Expr |
#: None``), a tuple of them, or a tuple of ``(label, Expr)`` pairs.
_ONE, _MANY, _LABELLED = "one", "many", "labelled"
_SLOT_KINDS = {
    "Expr": _ONE,
    "Expr | None": _ONE,
    "tuple[Expr, ...]": _MANY,
    "tuple[tuple[str, Expr], ...]": _LABELLED,
}


def _give_slots(cls: type) -> None:
    """Record on *cls* its field names and its child slots ``(index, name, kind)``."""
    fields = dataclass_fields(cls)
    cls._field_names = tuple(f.name for f in fields)
    cls._child_slots = tuple(
        (index, f.name, _SLOT_KINDS[f.type])
        for index, f in enumerate(fields)
        if f.type in _SLOT_KINDS
    )


def _node_classes(base: type = Expr) -> Iterator[type]:
    for cls in base.__subclasses__():
        yield cls
        yield from _node_classes(cls)


for _cls in _node_classes():
    _give_slots(_cls)


def children(expr: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of *expr*, in syntactic order."""
    out: list[Expr] = []
    for _index, name, kind in expr._child_slots:  # type: ignore[attr-defined]
        v = getattr(expr, name)
        if kind is _ONE:
            if v is not None:
                out.append(v)
        elif kind is _MANY:
            out.extend(v)
        else:
            out.extend([item[1] for item in v])
    return tuple(out)


def walk(expr: Expr) -> Iterator[Expr]:
    """Pre-order traversal of *expr* and all sub-expressions."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        kids = children(e)
        if kids:
            stack.extend(reversed(kids))


def transform(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up rewriting: rebuild *expr* with children transformed, then apply *fn*.

    ``fn`` receives each (already rebuilt) node and returns its replacement.
    """

    def go(e: Expr) -> Expr:
        return fn(_rebuild(e, go))

    return go(expr)


def _rebuild(expr: Expr, rec: Callable[[Expr], Expr]) -> Expr:
    """Rebuild one node with its direct children mapped through *rec*."""
    values: list[Any] | None = None
    for index, name, kind in expr._child_slots:  # type: ignore[attr-defined]
        v = getattr(expr, name)
        if kind is _ONE:
            if v is None:
                continue
            nv = rec(v)
            if nv is v:
                continue
        elif kind is _MANY:
            nv = tuple([rec(item) for item in v])
            if all(map(operator.is_, nv, v)):
                continue
        else:
            nv = tuple([(label, rec(item)) for label, item in v])
            if all(new is old for (_, new), (_, old) in zip(nv, v)):
                continue
        if values is None:
            values = [getattr(expr, f) for f in expr._field_names]  # type: ignore[attr-defined]
        values[index] = nv
    if values is None:
        return expr
    return type(expr)(*values)


# ---------------------------------------------------------------------------
# Binders, substitution, fresh names
# ---------------------------------------------------------------------------

def binder_of(expr: Expr) -> str | None:
    """The variable bound by *expr*, if it is a binding form."""
    if isinstance(expr, (Quant, SFW)):
        return expr.var
    return None


_fresh_counter = itertools.count()


def fresh_name(prefix: str, avoid: frozenset[str] | set[str] = frozenset()) -> str:
    """A name starting with *prefix* that is not in *avoid*.

    Names carry a global counter so independently generated names never
    collide within one process.
    """
    while True:
        name = f"{prefix}_{next(_fresh_counter)}"
        if name not in avoid:
            return name


def substitute(expr: Expr, name: str, replacement: Expr) -> Expr:
    """Capture-avoiding substitution of free occurrences of ``Var(name)``.

    Binders shadow: substitution does not descend into the parts of a
    ``Quant``/``SFW`` where *name* is rebound. Binders whose variable occurs
    free in *replacement* are alpha-renamed first.
    """
    from repro.lang.freevars import free_vars  # local import: freevars imports ast

    repl_free = free_vars(replacement)

    def go(e: Expr) -> Expr:
        if isinstance(e, Var):
            return replacement if e.name == name else e
        bound = binder_of(e)
        if bound is not None:
            if isinstance(e, Quant):
                domain = go(e.domain)
                if bound == name:
                    return Quant(e.kind, bound, domain, e.pred)
                if bound in repl_free:
                    new_var = fresh_name(bound, repl_free | free_vars(e.pred) | {name})
                    pred = substitute(e.pred, bound, Var(new_var))
                    return Quant(e.kind, new_var, domain, go(pred))
                return Quant(e.kind, bound, domain, go(e.pred))
            if isinstance(e, SFW):
                source = go(e.source)
                if bound == name:
                    return SFW(e.select, bound, source, e.where)
                if bound in repl_free:
                    avoid = repl_free | free_vars(e.select) | {name}
                    if e.where is not None:
                        avoid = avoid | free_vars(e.where)
                    new_var = fresh_name(bound, avoid)
                    select = substitute(e.select, bound, Var(new_var))
                    where = None if e.where is None else substitute(e.where, bound, Var(new_var))
                    return SFW(go(select), new_var, source, None if where is None else go(where))
                where = None if e.where is None else go(e.where)
                return SFW(go(e.select), bound, source, where)
        return _rebuild(e, go)

    return go(expr)


def rename_var(expr: Expr, old: str, new: str) -> Expr:
    """Rename a free variable (a special case of substitution)."""
    return substitute(expr, old, Var(new))


# ---------------------------------------------------------------------------
# Boolean helpers
# ---------------------------------------------------------------------------

def is_true_const(expr: Expr | None) -> bool:
    """Strict check for the literal TRUE (``Const(1)`` is *not* TRUE)."""
    return isinstance(expr, Const) and expr.value is True


def is_false_const(expr: Expr | None) -> bool:
    """Strict check for the literal FALSE (``Const(0)`` is *not* FALSE)."""
    return isinstance(expr, Const) and expr.value is False


def conjuncts(expr: Expr | None) -> tuple[Expr, ...]:
    """Flatten nested conjunctions into a tuple of conjuncts (TRUE → ())."""
    if expr is None or is_true_const(expr):
        return ()
    if isinstance(expr, And):
        out: list[Expr] = []
        for item in expr.items:
            out.extend(conjuncts(item))
        return tuple(out)
    return (expr,)


def make_and(items) -> Expr:
    """Conjunction of *items*, simplifying the 0- and 1-ary cases."""
    flat: list[Expr] = []
    for item in items:
        flat.extend(conjuncts(item))
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def make_or(items) -> Expr:
    """Disjunction of *items*, simplifying the 0- and 1-ary cases."""
    flat: list[Expr] = []
    for item in items:
        if isinstance(item, Or):
            flat.extend(item.items)
        elif is_false_const(item):
            continue
        else:
            flat.append(item)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def negate(expr: Expr) -> Expr:
    """Logical negation with shallow simplification (no double NOT)."""
    if isinstance(expr, Not):
        return expr.operand
    if is_true_const(expr):
        return FALSE
    if is_false_const(expr):
        return TRUE
    return Not(expr)


def contains_sfw(expr: Expr) -> bool:
    """True iff a SELECT-FROM-WHERE block occurs anywhere in *expr*."""
    return any(isinstance(e, SFW) for e in walk(expr))


def param_names(expr: Expr) -> tuple[str, ...]:
    """The distinct parameter names occurring in *expr*, sorted."""
    return tuple(sorted({e.name for e in walk(expr) if isinstance(e, Param)}))


def attr_path(expr: Expr) -> tuple[str, tuple[str, ...]] | None:
    """(root variable, labels) for a chain ``v.a.b…`` (``v`` alone: no labels), else None."""
    labels: list[str] = []
    while isinstance(expr, Attr):
        labels.append(expr.label)
        expr = expr.base
    if isinstance(expr, Var):
        labels.reverse()
        return expr.name, tuple(labels)
    return None
