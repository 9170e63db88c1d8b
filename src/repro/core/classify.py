"""Classification of predicates between query blocks (Section 7 / Table 2).

Given a predicate ``P(x, z)`` where ``z`` stands for a correlated subquery
result, Theorem 1 of the paper says grouping is unnecessary exactly when
``P`` can be rewritten into one of the calculus forms

* ``∃v ∈ z : P'(x, v)``   — then a **semijoin** computes the query, or
* ``¬∃v ∈ z : P'(x, v)``  — then an **antijoin** does.

This module implements the decision procedure as a syntactic pattern match
over normalized predicates. Because the WITH clause is desugared, ``z``
appears as the SFW block itself; classification is parameterised by that
block. Recognised rewrites (the machine-checked Table 2 — each row carries
a hypothesis proof in the test suite):

==============================  ========================================
``P(x, z)``                       rewrite
==============================  ========================================
``z = {}``, ``count(z) = 0``      ``¬∃v∈z (true)``
``z <> {}``, ``count(z) > 0``     ``∃v∈z (true)``
``e IN z``                        ``∃v∈z (v = e)``
``e NOT IN z``                    ``¬∃v∈z (v = e)``
``e SUPSETEQ z``                  ``¬∃v∈z (v NOT IN e)``
``NOT (e SUPSETEQ z)``            ``∃v∈z (v NOT IN e)``
``∃w∈e (w IN z)``                 ``∃v∈z (v IN e)``        (e ∩ z ≠ ∅)
``¬∃w∈e (w IN z)``                ``¬∃v∈z (v IN e)``       (e ∩ z = ∅)
``(e INTERSECT z) = {}``          ``¬∃v∈z (v IN e)``
``(e INTERSECT z) <> {}``         ``∃v∈z (v IN e)``
``∃v∈z (P')``                     itself
``¬∃v∈z (P')``                    itself
==============================  ========================================

Everything else — ``x.a = count(z)`` and the other aggregate comparisons,
``e SUBSETEQ z``, ``e SUBSET z``, ``e SUPSET z``, ``e = z``, ``e <> z`` —
requires the subquery result *as a whole*: **grouping**, i.e. a nest join.
(Whether grouping is *always* necessary outside the two forms is the
paper's open question; like the paper we treat the remainder as grouping.)

The symmetric spellings (``z SUBSETEQ e`` for ``e SUPSETEQ z``,
``z INTERSECT e`` for ``e INTERSECT z``, ``{} = z``, …) are handled by
mirroring before matching.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.lang.ast import (
    SFW,
    Agg,
    AggFunc,
    Cmp,
    CmpOp,
    Const,
    Expr,
    Not,
    Quant,
    QuantKind,
    SetExpr,
    SetOp,
    SetOpKind,
    TRUE,
    Var,
    _rebuild,
    fresh_name,
    walk,
)
from repro.lang.freevars import free_vars

__all__ = ["PredicateClass", "Classification", "classify", "contains_expr"]


class PredicateClass(enum.Enum):
    """The three outcomes of classification."""

    EXISTS = "exists"  # ∃v∈z (P') — semijoin
    NOT_EXISTS = "not_exists"  # ¬∃v∈z (P') — antijoin
    GROUPING = "grouping"  # nest join required


@dataclass(frozen=True)
class Classification:
    """Result of classifying ``P(x, z)`` with respect to a subquery ``z``.

    For the two flat forms, ``var`` is the member variable and
    ``member_pred`` the rewritten ``P'(x, v)`` (an expression over ``var``
    and the outer variables, with the subquery gone). For GROUPING both are
    None; use :meth:`grouped_pred` to obtain ``P`` with the subquery
    replaced by a reference to the nest-join attribute.
    """

    kind: PredicateClass
    subquery: SFW
    original: Expr
    var: str | None = None
    member_pred: Expr | None = None
    #: Name of the Table 2 row that matched (``"grouping"`` when none did);
    #: the tracing layer reports it so EXPLAIN/trace output can say *which*
    #: row of the decision table fired, not just the verdict.
    table2_row: str = "grouping"

    def grouped_pred(self, label: str) -> Expr:
        """``P`` with every occurrence of the subquery replaced by ``Var(label)``."""
        return replace_expr(self.original, self.subquery, Var(label))


def contains_expr(haystack: Expr, needle: Expr) -> bool:
    """True iff *needle* occurs (by structural equality) inside *haystack*."""
    return any(e == needle for e in walk(haystack))


def replace_expr(haystack: Expr, needle: Expr, replacement: Expr) -> Expr:
    """Replace occurrences of *needle* (by structural equality) in *haystack*.

    Top-down: a match is replaced whole, without descending into it. The
    identity test comes first because callers mostly pass a node they found
    inside *haystack*.
    """

    def go(e: Expr) -> Expr:
        if e is needle or e == needle:
            return replacement
        return _rebuild(e, go)

    return go(haystack)


def _is_empty_set(e: Expr) -> bool:
    if isinstance(e, SetExpr) and not e.items:
        return True
    return isinstance(e, Const) and e.value == frozenset()


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Const) and not isinstance(e.value, bool) and e.value == 0


def _count_of(e: Expr, sub: SFW) -> bool:
    return isinstance(e, Agg) and e.func == AggFunc.COUNT and e.operand == sub


def _fresh_member_var(pred: Expr, sub: SFW) -> str:
    return fresh_name("v", free_vars(pred) | free_vars(sub))


def classify(pred: Expr, sub: SFW) -> Classification:
    """Classify normalized predicate *pred* with respect to subquery *sub*.

    *pred* should be a single conjunct containing *sub*; run
    :func:`repro.core.normalize.normalize_predicate` first. The subquery is
    located by structural equality (the paper assumes one occurrence of
    ``z``; multiple *identical* occurrences are harmless).
    """
    result = _classify_flat(pred, sub)
    if result is None:
        result = Classification(PredicateClass.GROUPING, sub, pred)
    from repro.core.trace import emit

    emit(
        "classify",
        f"table2:{result.table2_row}",
        verdict=result.kind.value,
        table2_row=result.table2_row,
    )
    return result


def _exists(
    pred: Expr, sub: SFW, var: str, member_pred: Expr, row: str
) -> Classification:
    return Classification(PredicateClass.EXISTS, sub, pred, var, member_pred, row)


def _not_exists(
    pred: Expr, sub: SFW, var: str, member_pred: Expr, row: str
) -> Classification:
    return Classification(PredicateClass.NOT_EXISTS, sub, pred, var, member_pred, row)


def _classify_flat(pred: Expr, sub: SFW) -> Classification | None:
    # --- quantifier forms -------------------------------------------------
    if isinstance(pred, Quant) and pred.kind == QuantKind.EXISTS:
        if pred.domain == sub and not contains_expr(pred.pred, sub):
            # ∃v∈z (P') — already the target form.
            return _exists(pred, sub, pred.var, pred.pred, "exists")
        inner = _quantifier_over_other_domain(pred, sub)
        if inner is not None:
            var, member = inner
            return _exists(pred, sub, var, member, "exists-over-other-domain")
    if isinstance(pred, Not):
        inner = pred.operand
        if isinstance(inner, Quant) and inner.kind == QuantKind.EXISTS:
            if inner.domain == sub and not contains_expr(inner.pred, sub):
                return _not_exists(pred, sub, inner.var, inner.pred, "not-exists")
            flipped = _quantifier_over_other_domain(inner, sub)
            if flipped is not None:
                var, member = flipped
                return _not_exists(
                    pred, sub, var, member, "not-exists-over-other-domain"
                )
        if isinstance(inner, Cmp):
            flat = _classify_cmp(inner, sub)
            if flat is not None:
                kind, var, member, row = flat
                # Negate the polarity.
                if kind == PredicateClass.EXISTS:
                    return _not_exists(pred, sub, var, member, f"not-{row}")
                return _exists(pred, sub, var, member, f"not-{row}")
        return None
    # --- comparison forms -------------------------------------------------
    if isinstance(pred, Cmp):
        flat = _classify_cmp(pred, sub)
        if flat is not None:
            kind, var, member, row = flat
            if kind == PredicateClass.EXISTS:
                return _exists(pred, sub, var, member, row)
            return _not_exists(pred, sub, var, member, row)
    return None


def _quantifier_over_other_domain(
    quant: Quant, sub: SFW
) -> tuple[str, Expr] | None:
    """Match ``∃w ∈ e (w IN z)`` / ``∃w ∈ e (w NOT IN z)``-style shapes.

    ``∃w∈e (w IN z)``  ≡ e ∩ z ≠ ∅ ≡ ``∃v∈z (v IN e)``  (returned);
    the NOT IN variant is *not* flat (≡ ¬(e ⊆ z), needs z as a whole when
    quantified over z; but over e: ∃w∈e (w NOT IN z) ≡ ¬(e ⊆ z) — that
    needs all of z, so only the IN variant is returned).
    """
    if contains_expr(quant.domain, sub):
        return None  # domain mentions z in a non-trivial way
    body = quant.pred
    if (
        isinstance(body, Cmp)
        and body.op == CmpOp.IN
        and body.left == Var(quant.var)
        and body.right == sub
    ):
        # ∃w∈e (w IN z) ≡ ∃v∈z (v IN e)
        var = _fresh_member_var(quant, sub)
        return var, Cmp(CmpOp.IN, Var(var), quant.domain)
    return None


def _classify_cmp(
    cmp: Cmp, sub: SFW
) -> tuple[PredicateClass, str, Expr, str] | None:
    left, right, op = cmp.left, cmp.right, cmp.op

    # z = {} / {} = z  →  ¬∃v∈z(true);   z <> {} → ∃v∈z(true)
    for a, b in ((left, right), (right, left)):
        if a == sub and _is_empty_set(b):
            var = _fresh_member_var(cmp, sub)
            if op == CmpOp.EQ:
                return PredicateClass.NOT_EXISTS, var, TRUE, "empty"
            if op == CmpOp.NE:
                return PredicateClass.EXISTS, var, TRUE, "nonempty"

    # count(z) OP 0 (normalizer canonicalised count to the left)
    if _count_of(left, sub) and _is_zero(right):
        var = _fresh_member_var(cmp, sub)
        if op == CmpOp.EQ or op == CmpOp.LE:
            return PredicateClass.NOT_EXISTS, var, TRUE, "count-zero"
        if op == CmpOp.GT or op == CmpOp.NE:
            return PredicateClass.EXISTS, var, TRUE, "count-positive"
        if op == CmpOp.GE:
            # count(z) >= 0 is vacuously true; not useful — treat as flat true?
            return None
        if op == CmpOp.LT:
            return None  # count(z) < 0 is unsatisfiable; leave to grouping path

    # e IN z → ∃v∈z (v = e);   e NOT IN z → ¬∃v∈z (v = e)
    if right == sub and not contains_expr(left, sub):
        if op == CmpOp.IN:
            var = _fresh_member_var(cmp, sub)
            return PredicateClass.EXISTS, var, Cmp(CmpOp.EQ, Var(var), left), "in"
        if op == CmpOp.NOT_IN:
            var = _fresh_member_var(cmp, sub)
            return (
                PredicateClass.NOT_EXISTS,
                var,
                Cmp(CmpOp.EQ, Var(var), left),
                "not-in",
            )
        # e SUPSETEQ z ≡ ¬∃v∈z (v NOT IN e)
        if op == CmpOp.SUPSETEQ:
            var = _fresh_member_var(cmp, sub)
            return (
                PredicateClass.NOT_EXISTS,
                var,
                Cmp(CmpOp.NOT_IN, Var(var), left),
                "supseteq",
            )

    # z SUBSETEQ e  (mirror of e SUPSETEQ z)
    if left == sub and not contains_expr(right, sub) and op == CmpOp.SUBSETEQ:
        var = _fresh_member_var(cmp, sub)
        return (
            PredicateClass.NOT_EXISTS,
            var,
            Cmp(CmpOp.NOT_IN, Var(var), right),
            "supseteq-mirrored",
        )

    # (e INTERSECT z) = {} and symmetric spellings
    for a, b in ((left, right), (right, left)):
        other = _intersect_with(a, sub)
        if other is not None and _is_empty_set(b) and not contains_expr(other, sub):
            var = _fresh_member_var(cmp, sub)
            if op == CmpOp.EQ:
                return (
                    PredicateClass.NOT_EXISTS,
                    var,
                    Cmp(CmpOp.IN, Var(var), other),
                    "intersect-empty",
                )
            if op == CmpOp.NE:
                return (
                    PredicateClass.EXISTS,
                    var,
                    Cmp(CmpOp.IN, Var(var), other),
                    "intersect-nonempty",
                )

    return None


def _intersect_with(e: Expr, sub: SFW) -> Expr | None:
    """If *e* is ``other INTERSECT z`` (either order), return ``other``."""
    if isinstance(e, SetOp) and e.op == SetOpKind.INTERSECT:
        if e.left == sub:
            return e.right
        if e.right == sub:
            return e.left
    return None
