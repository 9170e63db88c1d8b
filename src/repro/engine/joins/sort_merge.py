"""Sort-merge implementations of all five join modes.

Both operands are sorted by their equi-key expressions under the model's
total order (:mod:`repro.model.compare`), then merged run by run. Each left
run is paired with the matching right run; the residual predicate filters
pairs inside a run pairing.

The nest join again respects Section 6: a left tuple's output is produced
only after its full matching right run has been consumed — natural here,
because the right run is materialised before the left run is advanced.

Every mode accepts optional presorted ``right_runs`` (as produced by
:func:`right_runs`), letting the physical layer reuse the sorted right
side across executions of a prepared plan (:mod:`repro.engine.cache`);
when runs are supplied the right operand is not consumed at all.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.lang.ast import Expr
from repro.lang.compile import compiled
from repro.model.compare import compare, sort_key
from repro.model.values import NULL, Tup

from repro.engine.joins.common import JoinSpec, merge_env, poller

__all__ = [
    "right_runs",
    "sm_inner_join",
    "sm_semi_join",
    "sm_anti_join",
    "sm_outer_join",
    "sm_nest_join",
]


def _keyed(rows, eval_side, tables) -> list[tuple[tuple, Tup]]:
    keyed = [(eval_side(t, tables), t) for t in rows]
    keyed.sort(key=lambda kt: tuple(sort_key(v) for v in kt[0]))
    return keyed


def _compare_keys(a: tuple, b: tuple) -> int:
    for x, y in zip(a, b):
        c = compare(x, y)
        if c:
            return c
    return 0


def _runs(keyed: list[tuple[tuple, Tup]]) -> Iterator[tuple[tuple, list[Tup]]]:
    i = 0
    n = len(keyed)
    while i < n:
        key = keyed[i][0]
        j = i
        run = []
        while j < n and _compare_keys(keyed[j][0], key) == 0:
            run.append(keyed[j][1])
            j += 1
        yield key, run
        i = j


def right_runs(rows, spec: JoinSpec, tables: Mapping) -> list[tuple[tuple, list[Tup]]]:
    """The right operand sorted and grouped into key runs (reusable)."""
    return list(_runs(_keyed(rows, spec.eval_right, tables)))


def _merge(
    left_rows, right_rows, spec: JoinSpec, tables: Mapping, rruns=None, op_label=None
) -> Iterator[tuple[Tup, list[Tup]]]:
    """Yield (left_tuple, matching_right_run) pairs; run may be empty.

    Polls the thread's cancel token about every ``POLL_INTERVAL`` pairs
    (see :func:`~repro.engine.joins.common.poller`)."""
    lkeyed = _keyed(left_rows, spec.eval_left, tables)
    if rruns is None:
        rruns = right_runs(right_rows, spec, tables)
    tick = poller(op_label)
    ri = 0
    for lkey, lrun in _runs(lkeyed):
        while ri < len(rruns) and _compare_keys(rruns[ri][0], lkey) < 0:
            ri += 1
        if ri < len(rruns) and _compare_keys(rruns[ri][0], lkey) == 0:
            rrun = rruns[ri][1]
        else:
            rrun = []
        for lt in lrun:
            tick(len(rrun))
            yield lt, rrun


def sm_inner_join(
    left_rows, right_rows, spec: JoinSpec, tables: Mapping, right_runs=None, op_label=None
) -> Iterator[Tup]:
    for lt, rrun in _merge(left_rows, right_rows, spec, tables, right_runs, op_label):
        for rt in rrun:
            merged = merge_env(lt, rt)
            if spec.eval_residual(merged, tables):
                yield merged


def sm_semi_join(
    left_rows, right_rows, spec: JoinSpec, tables: Mapping, right_runs=None, op_label=None
) -> Iterator[Tup]:
    for lt, rrun in _merge(left_rows, right_rows, spec, tables, right_runs, op_label):
        for rt in rrun:
            if spec.eval_residual(merge_env(lt, rt), tables):
                yield lt
                break


def sm_anti_join(
    left_rows, right_rows, spec: JoinSpec, tables: Mapping, right_runs=None, op_label=None
) -> Iterator[Tup]:
    for lt, rrun in _merge(left_rows, right_rows, spec, tables, right_runs, op_label):
        if not any(
            spec.eval_residual(merge_env(lt, rt), tables) for rt in rrun
        ):
            yield lt


def sm_outer_join(
    left_rows,
    right_rows,
    spec: JoinSpec,
    tables: Mapping,
    right_bindings: tuple[str, ...],
    right_runs=None,
    op_label=None,
) -> Iterator[Tup]:
    pad = {name: NULL for name in right_bindings}
    for lt, rrun in _merge(left_rows, right_rows, spec, tables, right_runs, op_label):
        matched = False
        for rt in rrun:
            merged = merge_env(lt, rt)
            if spec.eval_residual(merged, tables):
                matched = True
                yield merged
        if not matched:
            yield lt.extend(**pad)


def sm_nest_join(
    left_rows,
    right_rows,
    spec: JoinSpec,
    func: Expr,
    label: str,
    tables: Mapping,
    right_runs=None,
    op_label=None,
) -> Iterator[Tup]:
    func_fn = compiled(func)
    for lt, rrun in _merge(left_rows, right_rows, spec, tables, right_runs, op_label):
        group = set()
        for rt in rrun:
            merged = merge_env(lt, rt)
            if spec.eval_residual(merged, tables):
                group.add(func_fn(merged.as_env(), tables))
        yield lt.extend(**{label: frozenset(group)})
