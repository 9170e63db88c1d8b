"""Tests for persistent table indexes and the index-nested-loop join."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import (
    AntiJoin,
    Join,
    NestJoin,
    OuterJoin,
    Scan,
    Select,
    SemiJoin,
)
from repro.engine.executor import run_physical
from repro.engine.physical import PJoin, compile_plan
from repro.engine.table import Catalog, Table
from repro.lang.parser import parse
from repro.model.values import Tup


def catalog(n=40, seed=0):
    import random

    rng = random.Random(seed)
    cat = Catalog()
    cat.add_rows("X", [Tup(a=rng.randrange(5), b=rng.randrange(8)) for _ in range(n)])
    cat.add_rows("Y", [Tup(c=rng.randrange(5), d=rng.randrange(8)) for _ in range(n)])
    return cat


X = Scan("X", "x")
Y = Scan("Y", "y")
EQUI = parse("x.b = y.d")
RESIDUAL = parse("x.b = y.d AND x.a < y.c")


class TestTableIndex:
    def test_index_groups_rows(self):
        t = Table("T", [Tup(a=1, b=10), Tup(a=1, b=20), Tup(a=2, b=30)])
        index = t.hash_index(("a",))
        assert {k: len(v) for k, v in index.items()} == {(1,): 2, (2,): 1}

    def test_index_is_cached(self):
        t = Table("T", [Tup(a=1)])
        assert t.hash_index(("a",)) is t.hash_index(("a",))

    def test_composite_index(self):
        t = Table("T", [Tup(a=1, b=2), Tup(a=1, b=3)])
        index = t.hash_index(("a", "b"))
        assert set(index) == {(1, 2), (1, 3)}


MODES = [
    ("inner", lambda pred: Join(X, Y, pred)),
    ("semi", lambda pred: SemiJoin(X, Y, pred)),
    ("anti", lambda pred: AntiJoin(X, Y, pred)),
    ("outer", lambda pred: OuterJoin(X, Y, pred)),
    ("nest", lambda pred: NestJoin(X, Y, pred, parse("y.c"), "zs")),
]


class TestIndexNestedLoop:
    @pytest.mark.parametrize("name,mk", MODES, ids=[m for m, _ in MODES])
    @pytest.mark.parametrize("pred", [EQUI, RESIDUAL], ids=["equi", "residual"])
    def test_agrees_with_nested_loop(self, name, mk, pred):
        cat = catalog()
        plan = mk(pred)
        reference = Counter(run_physical(plan, cat, force_algorithm="nested_loop"))
        indexed = Counter(run_physical(plan, cat, force_algorithm="index_nested_loop"))
        assert indexed == reference

    def test_selected_when_right_is_bare_scan(self):
        cat = catalog(n=500)
        compiled = compile_plan(Join(X, Y, EQUI), cat)
        join = _find_join(compiled)
        assert join.index_target == ("Y", "y", ("d",))
        assert join.algorithm == "index_nested_loop"

    def test_not_available_when_right_is_filtered(self):
        cat = catalog()
        plan = Join(X, Select(Y, parse("y.c = 1")), EQUI)
        join = _find_join(compile_plan(plan, cat))
        assert join.index_target is None
        # Forcing it falls back to nested loop rather than mis-executing.
        forced = _find_join(compile_plan(plan, cat, force_algorithm="index_nested_loop"))
        assert forced.algorithm == "nested_loop"

    def test_not_available_for_computed_keys(self):
        cat = catalog()
        plan = Join(X, Y, parse("x.b = y.d + 1"))
        join = _find_join(compile_plan(plan, cat))
        assert join.index_target is None

    def test_composite_key_join(self):
        cat = catalog()
        pred = parse("x.b = y.d AND x.a = y.c")
        plan = Join(X, Y, pred)
        indexed = Counter(run_physical(plan, cat, force_algorithm="index_nested_loop"))
        reference = Counter(run_physical(plan, cat, force_algorithm="hash"))
        assert indexed == reference
        join = _find_join(compile_plan(plan, cat, force_algorithm="index_nested_loop"))
        assert join.index_target[2] == ("d", "c") or join.index_target[2] == ("c", "d")


def _find_join(op):
    if isinstance(op, PJoin):
        return op
    for c in op.children():
        j = _find_join(c)
        if j is not None:
            return j
    return None


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 30), seed=st.integers(0, 20))
def test_index_join_property(n, seed):
    cat = catalog(n, seed)
    plan = NestJoin(X, Y, EQUI, parse("y.c"), "zs")
    a = Counter(run_physical(plan, cat, force_algorithm="index_nested_loop"))
    b = Counter(run_physical(plan, cat, force_algorithm="hash"))
    assert a == b


_ROW = st.builds(lambda c, d: Tup(c=c, d=d), st.integers(0, 3), st.integers(0, 7))
_WRITE = st.one_of(
    st.tuples(st.just("insert"), st.lists(_ROW, max_size=4)),
    st.tuples(st.just("reinsert"), st.integers(0, 40)),  # the same object twice
    st.tuples(st.just("delete"), st.integers(0, 7)),
    st.tuples(st.just("delete_one"), st.integers(0, 40)),
)


def _first_copy(target):
    """A delete predicate matching only the first stored copy of *target*."""
    left = [target]

    def pred(row):
        if left and row is target:
            left.pop()
            return True
        return False

    return pred


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(_ROW, max_size=20), writes=st.lists(_WRITE, max_size=8), seed=st.integers(0, 5))
def test_small_writes_keep_indexes_and_joins_exact(rows, writes, seed):
    # Each write lands after the indexes and the join's group table were
    # built: the patched ones must equal a rebuild, bucket order included.
    base = catalog(12, seed)
    cat = Catalog()
    cat.add(base["X"])
    y = cat.add(Table("Y", rows, row_type=base["Y"].row_type))
    plan = NestJoin(X, Y, EQUI, parse("y.c"), "zs")
    for kind, arg in writes:
        y.hash_index(("d",))
        y.hash_index(("c", "d"))
        run_physical(plan, cat, force_algorithm="index_nested_loop")  # warm its group table
        if kind == "insert":
            y.insert(arg)
        elif kind == "reinsert" and y.rows:
            y.insert([y.rows[arg % len(y.rows)]])
        elif kind == "delete":
            y.delete(lambda row, d=arg: row.d == d)
        elif kind == "delete_one" and y.rows:
            y.delete(_first_copy(y.rows[arg % len(y.rows)]))
        for attrs in (("d",), ("c", "d")):
            assert y.hash_index(attrs) == Table("U", y.rows).hash_index(attrs)
        indexed = Counter(run_physical(plan, cat, force_algorithm="index_nested_loop"))
        assert indexed == Counter(run_physical(plan, cat, force_algorithm="hash"))


def test_end_to_end_queries_still_agree_with_oracle():
    import random

    from repro.testing import check_engines_agree, random_catalog, random_query

    for seed in range(40):
        rng = random.Random(seed)
        cat = random_catalog(rng)
        check_engines_agree(random_query(rng), cat)
