"""Differential tests for all join algorithms.

For each join mode, nested-loop, sort-merge and hash must produce the same
*multiset* of rows as the reference executor
(:func:`repro.algebra.interpreter.run_logical`) on random inputs, both
with pure equi predicates and with residual predicates. The nested-loop
and sort-merge kernels are called directly; the hash join has no kernel
outside the physical operator and runs through
``run_physical(force_algorithm="hash")``. The nest join's paper-mandated
properties (one output per left tuple, complete groups, dangling → ∅) are
asserted directly.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.interpreter import run_logical
from repro.algebra.plan import AntiJoin, Join, NestJoin, OuterJoin, Scan, SemiJoin
from repro.engine.executor import run_physical
from repro.engine.joins.common import analyse_join
from repro.engine.joins.nested_loop import (
    nl_anti_join,
    nl_inner_join,
    nl_nest_join,
    nl_outer_join,
    nl_semi_join,
)
from repro.engine.joins.sort_merge import (
    sm_anti_join,
    sm_inner_join,
    sm_nest_join,
    sm_outer_join,
    sm_semi_join,
)
from repro.engine.table import Catalog
from repro.lang.parser import parse
from repro.model.values import Tup


def rows(labels, max_size=6):
    row = st.builds(
        lambda *vals: Tup(dict(zip(labels, vals))),
        *[st.integers(0, 3) for _ in labels],
    )
    return st.lists(row, max_size=max_size)


LEFT = rows(("a", "b"))
RIGHT = rows(("c", "d"))

EQUI_PRED = parse("x.b = y.d")
RESIDUAL_PRED = parse("x.b = y.d AND x.a < y.c")
FUNC = parse("y.c")

L_BINDINGS = ("x",)
R_BINDINGS = ("y",)
X = Scan("X", "x")
Y = Scan("Y", "y")


def spec_of(pred):
    return analyse_join(pred, L_BINDINGS, R_BINDINGS)


def envs(var, table):
    """The binding tuples a scan of *table* AS *var* yields."""
    return [Tup({var: row}) for row in table]


def catalog_of(left, right):
    catalog = Catalog()
    catalog.add_rows("X", left)
    catalog.add_rows("Y", right)
    return catalog


def hash_join(plan, tables):
    return run_physical(plan, tables, force_algorithm="hash")


PREDS = pytest.mark.parametrize("pred", [EQUI_PRED, RESIDUAL_PRED], ids=["equi", "residual"])


@PREDS
@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_inner_join_agreement(pred, left, right):
    tables = catalog_of(left, right)
    plan = Join(X, Y, pred)
    want = Counter(run_logical(plan, tables))
    lenv, renv = envs("x", left), envs("y", right)
    assert Counter(nl_inner_join(lenv, renv, pred, {})) == want
    assert Counter(sm_inner_join(lenv, renv, spec_of(pred), {})) == want
    assert Counter(hash_join(plan, tables)) == want


@PREDS
@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_semi_join_agreement(pred, left, right):
    tables = catalog_of(left, right)
    plan = SemiJoin(X, Y, pred)
    want = Counter(run_logical(plan, tables))
    lenv, renv = envs("x", left), envs("y", right)
    assert Counter(nl_semi_join(lenv, renv, pred, {})) == want
    assert Counter(sm_semi_join(lenv, renv, spec_of(pred), {})) == want
    assert Counter(hash_join(plan, tables)) == want


@PREDS
@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_anti_join_agreement(pred, left, right):
    tables = catalog_of(left, right)
    plan = AntiJoin(X, Y, pred)
    want = Counter(run_logical(plan, tables))
    lenv, renv = envs("x", left), envs("y", right)
    assert Counter(nl_anti_join(lenv, renv, pred, {})) == want
    assert Counter(sm_anti_join(lenv, renv, spec_of(pred), {})) == want
    assert Counter(hash_join(plan, tables)) == want


@PREDS
@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_outer_join_agreement(pred, left, right):
    tables = catalog_of(left, right)
    plan = OuterJoin(X, Y, pred)
    want = Counter(run_logical(plan, tables))
    lenv, renv = envs("x", left), envs("y", right)
    assert Counter(nl_outer_join(lenv, renv, pred, {}, R_BINDINGS)) == want
    assert Counter(sm_outer_join(lenv, renv, spec_of(pred), {}, R_BINDINGS)) == want
    assert Counter(hash_join(plan, tables)) == want


def nest_join_outputs(pred, left, right):
    """The nest join's output under each algorithm, nested-loop first."""
    lenv, renv = envs("x", left), envs("y", right)
    return (
        list(nl_nest_join(lenv, renv, pred, FUNC, "zs", {})),
        list(sm_nest_join(lenv, renv, spec_of(pred), FUNC, "zs", {})),
        hash_join(NestJoin(X, Y, pred, FUNC, "zs"), catalog_of(left, right)),
    )


@PREDS
@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_nest_join_agreement(pred, left, right):
    want = Counter(run_logical(NestJoin(X, Y, pred, FUNC, "zs"), catalog_of(left, right)))
    for out in nest_join_outputs(pred, left, right):
        assert Counter(out) == want


@settings(max_examples=50, deadline=None)
@given(left=LEFT, right=RIGHT)
def test_nest_join_emits_each_left_tuple_exactly_once(left, right):
    for out in nest_join_outputs(EQUI_PRED, left, right):
        assert len(out) == len(left)
        assert Counter(t.drop("zs") for t in out) == Counter(envs("x", left))


def test_dangling_left_tuples_get_empty_set():
    for out in nest_join_outputs(EQUI_PRED, [Tup(a=1, b=99)], [Tup(c=1, d=1)]):
        (row,) = out
        assert row["zs"] == frozenset()


def test_hash_and_nl_preserve_left_order_for_nest_join():
    left = [Tup(a=i, b=i % 2) for i in range(6)]
    nl, _sm, hj = nest_join_outputs(EQUI_PRED, left, [Tup(c=9, d=0)])
    assert [t["x"] for t in nl] == left
    assert [t["x"] for t in hj] == left


class TestAnalyseJoin:
    def test_pure_equi(self):
        spec = analyse_join(parse("x.a = y.c"), L_BINDINGS, R_BINDINGS)
        assert spec.has_equi_keys
        assert spec.left_keys == (parse("x.a"),)
        assert spec.right_keys == (parse("y.c"),)
        from repro.lang.ast import is_true_const

        assert is_true_const(spec.residual)

    def test_mirrored_equi(self):
        spec = analyse_join(parse("y.c = x.a"), L_BINDINGS, R_BINDINGS)
        assert spec.left_keys == (parse("x.a"),)

    def test_residual_kept(self):
        spec = analyse_join(parse("x.a = y.c AND x.b < y.d"), L_BINDINGS, R_BINDINGS)
        assert spec.has_equi_keys
        assert spec.residual == parse("x.b < y.d")

    def test_no_keys_for_theta(self):
        spec = analyse_join(parse("x.a < y.c"), L_BINDINGS, R_BINDINGS)
        assert not spec.has_equi_keys

    def test_constant_equality_is_residual(self):
        spec = analyse_join(parse("x.a = 1 AND x.b = y.d"), L_BINDINGS, R_BINDINGS)
        assert spec.left_keys == (parse("x.b"),)
        assert spec.residual == parse("x.a = 1")

    def test_same_side_equality_is_residual(self):
        spec = analyse_join(parse("x.a = x.b"), L_BINDINGS, R_BINDINGS)
        assert not spec.has_equi_keys

    def test_composite_keys(self):
        spec = analyse_join(parse("x.a = y.c AND x.b = y.d"), L_BINDINGS, R_BINDINGS)
        assert len(spec.left_keys) == 2
