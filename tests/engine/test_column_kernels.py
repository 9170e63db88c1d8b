"""The column kernels that replace per-row closures, against the generic path.

* ``Map out = [r]`` hands the child's column and selection vector through;
* a ``Map`` whose expression is a tuple of attribute paths builds its column
  from :meth:`Batch.getter` reads;
* a hash semijoin or antijoin with a trivial residual builds a key set,
  cached under its own kind (``"hash-keys"``), never a binding tuple per row.

Each must give exactly what the generic path gives — same rows in the same
order, same errors — at every batch size.
"""

from collections import Counter

import pytest

from repro.algebra.interpreter import run_logical
from repro.algebra.plan import AntiJoin, Join, Map, Scan, Select, SemiJoin
from repro.engine.cache import BUILD_CACHE, clear_build_cache
from repro.engine.executor import execute
from repro.engine.physical import PJoin, PMap, compile_plan
from repro.engine.table import Catalog, Table
from repro.errors import ExecutionError
from repro.lang.parser import parse
from repro.model.types import INT, TupleType
from repro.model.values import Tup

BATCH_SIZES = (1, 7, 1024)
R = Scan("R", "r")
X = Scan("X", "x")
Y = Scan("Y", "y")
EQUI = parse("x.b = y.d")


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_rows(
        "R", [Tup(a=i % 9, b=i % 4, c=Tup(d=i % 3)) for i in range(40)]
    )
    cat.add_rows("X", [Tup(a=i, b=i % 11) for i in range(60)])
    cat.add_rows("Y", [Tup(c=i, d=i % 7) for i in range(20)])
    cat.add_rows("T", [Tup(f=1)])
    return cat


def generic_rows(op: PMap, tables, batch_size):
    """What the per-row closure makes of the same child batches."""
    rows = []
    for batch in op.child.run_batches(tables, batch_size):
        for out in op._mapped(batch, tables):
            rows.extend(out.to_tups())
    return rows


MAPS = {
    "pass-through over a filter": Map(Select(R, parse("r.a < 5")), parse("r"), "out"),
    "pass-through over a scan": Map(R, parse("r"), "out"),
    "two paths over a filter": Map(Select(R, parse("r.a < 5")), parse("(a = r.a, b = r.c.d)"), "out"),
    "three paths": Map(R, parse("(a = r.a, r = r, d = r.c.d)"), "out"),
    "paths over a join": Map(Join(X, Y, EQUI), parse("(a = x.a, b = y.c)"), "out"),
    "a table-name field": Map(Select(R, parse("r.b = 1")), parse("(a = r.a, t = T)"), "out"),
}


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("name", list(MAPS))
def test_map_kernels_equal_the_generic_path(catalog, name, batch_size):
    plan = MAPS[name]
    op = compile_plan(plan, catalog)
    assert isinstance(op, PMap)
    rows = execute(op, catalog, batch_size=batch_size)
    assert rows == generic_rows(op, catalog, batch_size)
    assert Counter(rows) == Counter(run_logical(plan, catalog))


def test_pass_through_keeps_the_filters_selection_vector(catalog):
    op = compile_plan(MAPS["pass-through over a filter"], catalog)
    (batch,) = op.run_batches(catalog, 1024)
    child = next(op.child.run_batches(catalog, 1024))
    assert batch.sel == child.sel and batch.sel is not None
    assert batch.columns["out"] == child.columns["r"]


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_paths_map_raises_what_the_generic_path_raises(batch_size):
    cat = Catalog()
    row_type = TupleType({"a": INT, "b": INT})
    cat.add(Table("R", [Tup(a=1, b=2), Tup(a=2, b=3), Tup(a=3), Tup(a=4, b=5)], row_type=row_type))
    op = compile_plan(Map(R, parse("(a = r.a, b = r.b)"), "out"), cat)
    with pytest.raises(ExecutionError) as kernel:
        execute(op, cat, batch_size=batch_size)
    with pytest.raises(ExecutionError) as generic:
        generic_rows(op, cat, batch_size)
    assert str(kernel.value) == str(generic.value) == "tuple has no attribute 'b'; has ['a']"


# -- key-set semi/antijoin -----------------------------------------------------


def find_join(op):
    if isinstance(op, PJoin):
        return op
    for child in op.children():
        found = find_join(child)
        if found is not None:
            return found
    return None


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("make", [SemiJoin, AntiJoin], ids=["semi", "anti"])
def test_key_filter_equals_the_interpreter(catalog, make, batch_size):
    for pred in (EQUI, parse("x.b = y.d AND x.a = y.c")):
        plan = make(X, Y, pred)
        op = compile_plan(plan, catalog, force_algorithm="hash")
        rows = execute(op, catalog, batch_size=batch_size)
        assert rows == run_logical(plan, catalog)


def test_semijoin_and_inner_join_on_one_scan_keep_separate_artifacts(catalog):
    clear_build_cache()
    semi_plan, inner_plan = SemiJoin(X, Y, EQUI), Join(X, Y, EQUI)
    semi = compile_plan(semi_plan, catalog, force_algorithm="hash")
    inner = compile_plan(inner_plan, catalog, force_algorithm="hash")
    assert not inner.hash_build_left  # both build on Y
    for _ in range(2):
        assert execute(semi, catalog) == run_logical(semi_plan, catalog)
        assert Counter(execute(inner, catalog)) == Counter(run_logical(inner_plan, catalog))
    assert (semi.cache_hits, semi.cache_misses) == (1, 1)
    assert (inner.cache_hits, inner.cache_misses) == (1, 1)
    keys = BUILD_CACHE.get(BUILD_CACHE.key("hash-keys", catalog["Y"], "y", ("y.d",)))
    build = BUILD_CACHE.get(BUILD_CACHE.key("hash-build", catalog["Y"], "y", ("y.d",)))
    assert keys == frozenset((row["d"],) for row in catalog["Y"])
    assert isinstance(build, dict) and all(isinstance(b, list) for b in build.values())
    assert "reusable key set on Y(y.d)" in semi.cache_note()
    assert "reusable hash build on Y(y.d)" in inner.cache_note()


def test_key_set_is_rebuilt_after_every_write(catalog):
    clear_build_cache()
    catalog["X"].insert([Tup(a=100, b=77)])
    plan = SemiJoin(X, Y, EQUI)
    op = find_join(compile_plan(plan, catalog, force_algorithm="hash"))
    table = catalog["Y"]

    def run():
        rows = execute(op, catalog)
        assert rows == run_logical(plan, catalog)
        return {row["x"]["a"] for row in rows}

    assert 100 not in run()
    before = BUILD_CACHE.get(BUILD_CACHE.key("hash-keys", table, "y", ("y.d",)))
    table.insert([Tup(c=999, d=77)])
    assert 100 in run()
    after_insert = BUILD_CACHE.get(BUILD_CACHE.key("hash-keys", table, "y", ("y.d",)))
    assert (77,) in after_insert and (77,) not in before
    table.delete(lambda row: row["d"] == 77)
    assert 100 not in run()
    after_delete = BUILD_CACHE.get(BUILD_CACHE.key("hash-keys", table, "y", ("y.d",)))
    assert after_delete == before and after_delete is not before
    assert (op.cache_hits, op.cache_misses) == (0, 3)
