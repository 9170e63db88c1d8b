"""Nested-loop implementations of all five join modes.

The universal fallback: handles arbitrary predicates (no equi-key needed).
Quadratic — exactly the naive strategy the paper wants the optimizer to
escape from, and therefore also the baseline the benchmarks measure
against. The predicate (and nest function) closures are resolved once per
join invocation, not once per row pair. Every kernel polls the thread's
cancel token (:func:`~repro.engine.joins.common.poller`) about every
``POLL_INTERVAL`` predicate evaluations.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import ExecutionError
from repro.lang.ast import Expr
from repro.lang.compile import compiled
from repro.model.values import NULL, Tup

from repro.engine.joins.common import merge_env, poller

__all__ = [
    "nl_inner_join",
    "nl_semi_join",
    "nl_anti_join",
    "nl_outer_join",
    "nl_nest_join",
]


def _pred_fn(pred: Expr):
    fn = compiled(pred)

    def check(binding: Tup, tables: Mapping) -> bool:
        result = fn(binding.as_env(), tables)
        if not isinstance(result, bool):
            raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
        return result

    return check


def nl_inner_join(
    left: Iterable[Tup],
    right: list[Tup],
    pred: Expr,
    tables: Mapping,
    op_label: str | None = None,
) -> Iterator[Tup]:
    check = _pred_fn(pred)
    tick = poller(op_label)
    for lt in left:
        tick(len(right))
        for rt in right:
            merged = merge_env(lt, rt)
            if check(merged, tables):
                yield merged


def nl_semi_join(
    left: Iterable[Tup],
    right: list[Tup],
    pred: Expr,
    tables: Mapping,
    op_label: str | None = None,
) -> Iterator[Tup]:
    check = _pred_fn(pred)
    tick = poller(op_label)
    for lt in left:
        tick(len(right))
        for rt in right:
            if check(merge_env(lt, rt), tables):
                yield lt
                break


def nl_anti_join(
    left: Iterable[Tup],
    right: list[Tup],
    pred: Expr,
    tables: Mapping,
    op_label: str | None = None,
) -> Iterator[Tup]:
    check = _pred_fn(pred)
    tick = poller(op_label)
    for lt in left:
        tick(len(right))
        if not any(check(merge_env(lt, rt), tables) for rt in right):
            yield lt


def nl_outer_join(
    left: Iterable[Tup],
    right: list[Tup],
    pred: Expr,
    tables: Mapping,
    right_bindings: tuple[str, ...],
    op_label: str | None = None,
) -> Iterator[Tup]:
    check = _pred_fn(pred)
    pad = {name: NULL for name in right_bindings}
    tick = poller(op_label)
    for lt in left:
        tick(len(right))
        matched = False
        for rt in right:
            merged = merge_env(lt, rt)
            if check(merged, tables):
                matched = True
                yield merged
        if not matched:
            yield lt.extend(**pad)


def nl_nest_join(
    left: Iterable[Tup],
    right: list[Tup],
    pred: Expr,
    func: Expr,
    label: str,
    tables: Mapping,
    op_label: str | None = None,
) -> Iterator[Tup]:
    """Nest join, nested-loop flavour.

    Honors the paper's implementation restriction: a left tuple is emitted
    only after its *entire* match set is known (trivially true here — the
    inner loop completes first).
    """
    check = _pred_fn(pred)
    func_fn = compiled(func)
    tick = poller(op_label)
    for lt in left:
        tick(len(right))
        group = set()
        for rt in right:
            merged = merge_env(lt, rt)
            if check(merged, tables):
                group.add(func_fn(merged.as_env(), tables))
        yield lt.extend(**{label: frozenset(group)})
