"""Hash-join build-side choice (Section 6's aside on the regular join)."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.interpreter import run_logical
from repro.algebra.plan import Join, NestJoin, Scan, SemiJoin
from repro.engine.executor import execute, run_physical
from repro.engine.physical import PJoin, compile_plan
from repro.engine.table import Catalog
from repro.lang.parser import parse
from repro.model.values import Tup

X = Scan("X", "x")
Y = Scan("Y", "y")
EQUI = parse("x.b = y.d")


def catalog(nx, ny, seed=0):
    import random

    rng = random.Random(seed)
    cat = Catalog()
    cat.add_rows("X", [Tup(a=i, b=rng.randrange(5)) for i in range(nx)])
    cat.add_rows("Y", [Tup(c=i, d=rng.randrange(5)) for i in range(ny)])
    return cat


def find_join(op):
    if isinstance(op, PJoin):
        return op
    for c in op.children():
        j = find_join(c)
        if j:
            return j
    return None


class TestBuildSideChoice:
    def test_small_left_builds_left(self):
        cat = catalog(10, 500)
        join = find_join(compile_plan(Join(X, Y, EQUI), cat, force_algorithm="hash"))
        assert join.hash_build_left is True

    def test_small_right_builds_right(self):
        cat = catalog(500, 10)
        join = find_join(compile_plan(Join(X, Y, EQUI), cat, force_algorithm="hash"))
        assert join.hash_build_left is False

    @pytest.mark.parametrize(
        "mk", [lambda: SemiJoin(X, Y, EQUI), lambda: NestJoin(X, Y, EQUI, None, "zs")],
        ids=["semi", "nest"],
    )
    def test_asymmetric_modes_never_build_left(self, mk):
        cat = catalog(10, 500)
        join = find_join(compile_plan(mk(), cat, force_algorithm="hash"))
        assert join.hash_build_left is False

    def test_results_agree_regardless_of_build_side(self):
        cat = catalog(10, 500, seed=3)
        small_left = Counter(run_physical(Join(X, Y, EQUI), cat, force_algorithm="hash"))
        reference = Counter(run_physical(Join(X, Y, EQUI), cat, force_algorithm="nested_loop"))
        assert small_left == reference


@settings(max_examples=50, deadline=None)
@given(
    left=st.lists(st.builds(Tup, a=st.integers(0, 3), b=st.integers(0, 3)), max_size=8),
    right=st.lists(st.builds(Tup, c=st.integers(0, 3), d=st.integers(0, 3)), max_size=8),
)
def test_build_sides_produce_identical_multisets(left, right):
    tables = Catalog()
    tables.add_rows("X", left)
    tables.add_rows("Y", right)
    plan = Join(X, Y, EQUI)
    join = compile_plan(plan, tables, force_algorithm="hash")
    want = Counter(run_logical(plan, tables))
    for build_left in (False, True):
        op = dataclasses.replace(join, hash_build_left=build_left)
        assert Counter(execute(op, tables)) == want
