"""Predicate normalization ahead of classification.

The classifier (Section 7 / Table 2 of the paper) pattern-matches predicate
shapes. Normalization makes the match surface small:

* negations are pushed inward (De Morgan, double negation, operator
  flipping for negatable comparisons);
* ``FORALL v IN d (p)`` becomes ``NOT EXISTS v IN d (NOT p)``;
* comparisons against a count/emptiness of a set are canonicalised
  (``0 = count(z)`` → ``count(z) = 0``, ``count(z) >= 1`` → ``count(z) > 0``
  etc.) so the classifier needs one spelling per idea.

Negation stops at the boundary of an EXISTS quantifier: ``NOT EXISTS`` is
itself one of the two target calculus forms of Theorem 1, so the normal
form keeps it.

All three happen in one walk over the predicate (:func:`_normal`).
"""

from __future__ import annotations

from repro.core.trace import current_trace
from repro.lang.ast import (
    NEGATED_CMP,
    And,
    Agg,
    AggFunc,
    Cmp,
    CmpOp,
    Const,
    Expr,
    Not,
    Or,
    Quant,
    QuantKind,
    is_false_const,
    is_true_const,
    make_and,
    make_or,
    negate,
    transform,
)

__all__ = ["normalize_predicate", "push_not"]


def normalize_predicate(expr: Expr) -> Expr:
    """Normalize a boolean expression for classification."""
    normal = _normal(expr, False)
    trace = current_trace()
    if trace is not None and normal != expr:  # render the diff only when someone is looking
        from repro.lang.pretty import pretty

        trace.record(
            "normalize",
            "normalize-predicate",
            detail=f"{pretty(expr)} ⇒ {pretty(normal)}",
        )
    return normal


def _normal(expr: Expr, negated: bool) -> Expr:
    """The normal form of *expr*, negated when *negated*, in one top-down pass.

    Along the boolean skeleton (NOT, AND, OR and quantifier bodies) negation
    is pushed inward and ``FORALL v IN d (p)`` becomes ``NOT EXISTS v IN d
    (NOT p)``; every other sub-expression, quantifier domains included, goes
    through :func:`_rewrite_inside`.
    """
    if isinstance(expr, Not):
        return _normal(expr.operand, not negated)
    if isinstance(expr, And):
        items = [_normal(i, negated) for i in expr.items]
        return make_or(items) if negated else make_and(items)
    if isinstance(expr, Or):
        items = [_normal(i, negated) for i in expr.items]
        return make_and(items) if negated else make_or(items)
    if isinstance(expr, Quant):
        # NOT (if any) stays on the quantifier itself: ¬∃ is a target form
        # of Theorem 1.
        forall = expr.kind == QuantKind.FORALL
        inner = Quant(
            QuantKind.EXISTS, expr.var, _rewrite_inside(expr.domain), _normal(expr.pred, forall)
        )
        return Not(inner) if negated != forall else inner
    if not negated:
        return _rewrite_inside(expr)
    # Negated leaf.
    if isinstance(expr, Cmp) and expr.op in NEGATED_CMP:
        return _canonical_cmp(
            Cmp(NEGATED_CMP[expr.op], _rewrite_inside(expr.left), _rewrite_inside(expr.right))
        )
    if is_true_const(expr):
        return Const(False)
    if is_false_const(expr):
        return Const(True)
    return Not(_rewrite_inside(expr))


def _rewrite_inside(expr: Expr) -> Expr:
    """Off the boolean skeleton: eliminate FORALL and canonicalise comparisons,
    bottom-up, without pushing negation."""
    return transform(expr, _inside_rule)


def _inside_rule(e: Expr) -> Expr:
    if isinstance(e, Quant) and e.kind == QuantKind.FORALL:
        return Not(Quant(QuantKind.EXISTS, e.var, e.domain, negate(e.pred)))
    return _canonical_cmp(e)


def push_not(expr: Expr, negated: bool = False) -> Expr:
    """Push negations inward; ``negated`` tracks an outstanding NOT."""
    if isinstance(expr, Not):
        return push_not(expr.operand, not negated)
    if isinstance(expr, And):
        items = [push_not(i, negated) for i in expr.items]
        return make_or(items) if negated else make_and(items)
    if isinstance(expr, Or):
        items = [push_not(i, negated) for i in expr.items]
        return make_and(items) if negated else make_or(items)
    if isinstance(expr, Quant) and expr.kind == QuantKind.EXISTS:
        # Normalize the quantifier body; NOT (if any) stays on the
        # quantifier itself: ¬∃ is a target form of Theorem 1.
        inner = Quant(expr.kind, expr.var, expr.domain, push_not(expr.pred))
        return Not(inner) if negated else inner
    if not negated:
        return expr
    # Negated leaf.
    if isinstance(expr, Cmp) and expr.op in NEGATED_CMP:
        return Cmp(NEGATED_CMP[expr.op], expr.left, expr.right)
    if is_true_const(expr):
        return Const(False)
    if is_false_const(expr):
        return Const(True)
    return Not(expr)


_COUNT_CANONICAL_ZERO = Const(0)


def _canonical_cmp(e: Expr) -> Expr:
    """Canonicalise count/emptiness comparisons; leave everything else."""
    if not isinstance(e, Cmp):
        return e
    left, right, op = e.left, e.right, e.op
    # Put the aggregate/set on the left: 0 = count(z) → count(z) = 0.
    if _is_count(right) and isinstance(left, Const):
        from repro.lang.ast import MIRRORED_CMP

        if op in MIRRORED_CMP:
            left, right, op = right, left, MIRRORED_CMP[op]
    if _is_count(left) and isinstance(right, Const):
        n = right.value
        if not isinstance(n, bool) and isinstance(n, (int, float)):
            # count(z) >= 1 ≡ count(z) > 0 ≡ count(z) <> 0 (counts are ≥ 0 ints)
            if op == CmpOp.GE and n == 1:
                return Cmp(CmpOp.GT, left, _COUNT_CANONICAL_ZERO)
            if op == CmpOp.NE and n == 0:
                return Cmp(CmpOp.GT, left, _COUNT_CANONICAL_ZERO)
            # count(z) < 1 ≡ count(z) <= 0 ≡ count(z) = 0
            if op == CmpOp.LT and n == 1:
                return Cmp(CmpOp.EQ, left, _COUNT_CANONICAL_ZERO)
            if op == CmpOp.LE and n == 0:
                return Cmp(CmpOp.EQ, left, _COUNT_CANONICAL_ZERO)
    return Cmp(op, left, right) if (left is not e.left or right is not e.right or op is not e.op) else e


def _is_count(e: Expr) -> bool:
    return isinstance(e, Agg) and e.func == AggFunc.COUNT
