"""Join-predicate analysis shared by all physical join implementations.

A join predicate is split into *equi-conjuncts* — ``l = r`` where ``l``
only references left-operand bindings and ``r`` only right-operand bindings
(or mirrored) — and a *residual* predicate evaluated after key matching.
Hash and sort-merge joins require at least one equi-conjunct; nested-loop
handles anything.

:class:`JoinSpec` carries the compiled closures for its key expressions
and residual, resolved once (at physical-compile time via
:meth:`JoinSpec.precompile`, or lazily on first use) instead of going
through the per-expression memo dict for every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from repro.engine.cancel import POLL_INTERVAL, current_token
from repro.errors import ExecutionError
from repro.lang.ast import Cmp, CmpOp, Expr, conjuncts, is_true_const, make_and
from repro.lang.compile import compiled
from repro.lang.freevars import free_vars
from repro.model.values import Tup

__all__ = ["JoinSpec", "analyse_join", "eval_keys", "merge_env", "eval_pred", "poller"]


@dataclass(frozen=True)
class JoinSpec:
    """Equi-key expressions plus the residual predicate of a join."""

    left_keys: tuple[Expr, ...]
    right_keys: tuple[Expr, ...]
    residual: Expr  # TRUE when empty

    @property
    def has_equi_keys(self) -> bool:
        return bool(self.left_keys)

    # -- precompiled closures ------------------------------------------------
    # cached_property stores straight into the instance __dict__, which is
    # permitted on a frozen dataclass and excluded from equality/hashing.

    @cached_property
    def _left_fns(self):
        return tuple(compiled(k) for k in self.left_keys)

    @cached_property
    def _right_fns(self):
        return tuple(compiled(k) for k in self.right_keys)

    @cached_property
    def _residual_fn(self):
        return compiled(self.residual)

    @cached_property
    def residual_trivial(self) -> bool:
        """True when the residual is the constant TRUE (skip evaluation)."""
        return is_true_const(self.residual)

    # Most joins have exactly one equi-key; a pre-resolved single closure
    # lets eval_left/eval_right build the key as a one-element literal
    # tuple instead of driving tuple() over a generator per row.
    @cached_property
    def _left_single(self):
        return self._left_fns[0] if len(self._left_fns) == 1 else None

    @cached_property
    def _right_single(self):
        return self._right_fns[0] if len(self._right_fns) == 1 else None

    def precompile(self) -> "JoinSpec":
        """Resolve every closure now (called once at plan-compile time)."""
        self._left_fns, self._right_fns, self._residual_fn, self.residual_trivial
        self._left_single, self._right_single
        return self

    # -- per-row evaluation (the hot path) -----------------------------------
    def eval_left(self, binding: Tup, tables: Mapping) -> tuple:
        single = self._left_single
        if single is not None:
            return (single(binding.as_env(), tables),)
        env = binding.as_env()
        return tuple(fn(env, tables) for fn in self._left_fns)

    def eval_right(self, binding: Tup, tables: Mapping) -> tuple:
        single = self._right_single
        if single is not None:
            return (single(binding.as_env(), tables),)
        env = binding.as_env()
        return tuple(fn(env, tables) for fn in self._right_fns)

    def eval_residual(self, binding: Tup, tables: Mapping) -> bool:
        if self.residual_trivial:
            return True
        result = self._residual_fn(binding.as_env(), tables)
        if not isinstance(result, bool):
            raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
        return result


def analyse_join(pred: Expr, left_bindings, right_bindings) -> JoinSpec:
    """Split *pred* into equi-key pairs and a residual.

    Free variables not bound by either operand (e.g. table names used by an
    interpreted subquery inside the predicate) force the conjunct into the
    residual — only cleanly separable equalities become keys.
    """
    left_set = frozenset(left_bindings)
    right_set = frozenset(right_bindings)
    lkeys: list[Expr] = []
    rkeys: list[Expr] = []
    residual: list[Expr] = []
    for conj in conjuncts(pred):
        pair = _equi_pair(conj, left_set, right_set)
        if pair is None:
            residual.append(conj)
        else:
            lkeys.append(pair[0])
            rkeys.append(pair[1])
    return JoinSpec(tuple(lkeys), tuple(rkeys), make_and(residual))


def _equi_pair(conj: Expr, left_set, right_set) -> tuple[Expr, Expr] | None:
    if not isinstance(conj, Cmp) or conj.op != CmpOp.EQ:
        return None
    lv = free_vars(conj.left)
    rv = free_vars(conj.right)
    if not lv or not rv:
        return None  # constant side: cheap residual, not a key
    if lv <= left_set and rv <= right_set:
        return conj.left, conj.right
    if lv <= right_set and rv <= left_set:
        return conj.right, conj.left
    return None


def eval_keys(keys: tuple[Expr, ...], binding: Tup, tables: Mapping) -> tuple:
    """Evaluate key expressions over one binding tuple (compiled closures)."""
    env = binding.as_env()
    return tuple(compiled(k)(env, tables) for k in keys)


def merge_env(left: Tup, right: Tup) -> Tup:
    return left.concat(right)


def eval_pred(pred: Expr, binding: Tup, tables: Mapping) -> bool:
    """Evaluate a join/selection predicate over one binding tuple.

    Uses the closure compiler (:mod:`repro.lang.compile`); the reference
    executor keeps using the tree-walking interpreter, so the two are
    differentially tested against each other throughout the suite.
    """
    result = compiled(pred)(binding.as_env(), tables)
    if not isinstance(result, bool):
        raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
    return result


def _no_poll(pairs: int) -> None:
    pass


def poller(op_label: str | None = None):
    """The cancellation poll of a join loop over binding tuples.

    The loop calls the returned ``tick(pairs)`` before each left row with
    the number of row pairs that row is about to be tested against (an
    empty other side counts as one). The token is polled before the
    first row and then whenever about
    :data:`~repro.engine.cancel.POLL_INTERVAL` pairs have accumulated, so
    a deadline bounds a quadratic join by its work, not by how often its
    children scan. Each poll credits the left rows since the previous one
    to the token's progress sink under *op_label*. With no token
    installed in this thread, ``tick`` does nothing.
    """
    token = current_token()
    if token is None:
        return _no_poll
    budget = 0
    rows = 0

    def tick(pairs: int) -> None:
        nonlocal budget, rows
        budget -= pairs or 1
        if budget <= 0:
            token.check(rows, op_label)
            rows = 0
            budget = POLL_INTERVAL
        rows += 1

    return tick
