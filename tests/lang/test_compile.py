"""Differential tests: the closure compiler must match the interpreter."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import prepared
from repro.engine.table import Catalog
from repro.errors import ExecutionError
from repro.lang.compile import _CACHE, compile_expr, compiled
from repro.lang.eval import Env, evaluate
from repro.lang.parser import parse
from repro.model.values import NULL, Tup

SOURCES = [
    "1 + 2 * 3",
    "7 / 2",
    "8 / 2",
    "7 % 3",
    "-(x.a)",
    "'a' + 'b'",
    "x.a = 1",
    "x.a <> y.b",
    "x.a < y.b AND x.a >= 0",
    "NOT (x.a = 1) OR x.a = 2",
    "x.a IN {1, 2, 3}",
    "x.a NOT IN s",
    "s SUBSETEQ {1, 2, 3}",
    "s SUBSET {1, 2}",
    "{1} SUPSETEQ s",
    "s UNION {9}",
    "s INTERSECT {1, 2}",
    "s DIFF {1}",
    "COUNT(s)",
    "SUM(s)",
    "MIN({3, 1})",
    "MAX({'a', 'b'})",
    "AVG({2, 4})",
    "(a = x.a, b = 's')",
    "(a = x.a, b = 's').a",
    "[1, x.a]",
    "<ok: x.a>",
    "EXISTS v IN s (v = x.a)",
    "FORALL v IN s (v < 10)",
    "UNNEST({{1}, {2, 3}})",
    "SELECT v + 1 FROM s v WHERE v > 0",
    "COUNT(SELECT v FROM s v WHERE v = x.a)",
    "NULL = NULL",
    "NULL = x.a",
]

ENV = {"x": Tup(a=1), "y": Tup(b=2), "s": frozenset({1, 2, 3})}


@pytest.mark.parametrize("src", SOURCES, ids=SOURCES)
def test_compiled_matches_interpreter(src):
    expr = parse(src)
    interpreted = evaluate(expr, Env(ENV))
    compiled_value = compile_expr(expr)(dict(ENV), {})
    assert compiled_value == interpreted
    assert type(compiled_value) is type(interpreted)


ERROR_SOURCES = [
    "1 / 0",
    "1 % 0",
    "AVG({})",
    "MIN({})",
    "1 < 'a'",
    "x.a AND x.a = 1",
    "{1}.a",
    "UNNEST({1, 2})",
    "SUM({'a'})",
    "x.q",
    "x.a.q",
    "1 < s",
    "COUNT(x.a)",
    "x.a SUBSETEQ s",
    "EXISTS v IN s (v.a = 1)",
]


@pytest.mark.parametrize("src", ERROR_SOURCES, ids=ERROR_SOURCES)
def test_compiled_raises_where_interpreter_raises(src):
    expr = parse(src)
    with pytest.raises(ExecutionError) as interpreted:
        evaluate(expr, Env(ENV))
    with pytest.raises(ExecutionError) as compiled_error:
        compile_expr(expr)(dict(ENV), {})
    assert type(compiled_error.value) is type(interpreted.value)
    assert str(compiled_error.value) == str(interpreted.value)


class TestMemoisation:
    def test_compiled_is_cached_per_object(self):
        expr = parse("x.a = 1")
        assert compiled(expr) is compiled(expr)

    def test_equal_but_distinct_objects_compile_separately(self):
        a = parse("x.a = 1")
        b = parse("x.a = 1")
        assert a == b
        assert compiled(a) is not compiled(b)

    def test_entries_die_with_their_expression(self):
        shapes = (
            "x.a = {i}",
            "(a = x.a, n = COUNT(SELECT s FROM S s WHERE s.c = x.c AND s.d < {i}))",
            "EXISTS v IN x.s (v = {i})",
            "SELECT (s = s, r = x) FROM S s WHERE s.c IN (SELECT t.c FROM S t WHERE t.d = {i})",
            "FORALL v IN {{1, {i}}} (v > 0 OR x.a = v)",
        )
        compiled(parse(shapes[0].format(i=0)))  # shared constants are cached by now
        gc.collect()
        before = len(_CACHE)
        for i in range(1000):
            compiled(parse(shapes[i % len(shapes)].format(i=i)))
        gc.collect()
        assert len(_CACHE) == before

    def test_a_held_plan_keeps_hitting(self):
        catalog = Catalog()
        catalog.add_rows("R", [Tup(a=1, c=2)])
        # (An equality with a constant would become a probe, not a filter.)
        physical = prepared("SELECT r FROM R r WHERE r.a < 1", catalog).compile_for(catalog)
        (pred,) = [op.pred for op in _operators(physical) if hasattr(op, "pred")]
        fn = compiled(pred)
        gc.collect()
        assert compiled(pred) is fn


def _operators(op):
    yield op
    for child in op.children():
        yield from _operators(child)


class TestScoping:
    def test_quantifier_shadowing(self):
        expr = parse("EXISTS v IN {5} (EXISTS v IN {6} (v = 6))")
        assert compile_expr(expr)({}, {}) is True

    def test_sfw_shadowing_does_not_leak(self):
        expr = parse("SELECT v FROM {1, 2} v WHERE v = 2")
        env = {"v": 99}
        assert compile_expr(expr)(env, {}) == frozenset({2})
        assert env == {"v": 99}  # input env untouched

    def test_tables_resolved_through_mapping(self):
        expr = parse("SELECT t.a FROM T t")
        tables = {"T": frozenset({Tup(a=7)})}
        assert compile_expr(expr)({}, tables) == frozenset({7})


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_compiled_matches_interpreter_on_random_predicates(seed):
    """Generate random query WHERE clauses and compare evaluation."""
    from repro.lang.parser import parse_query
    from repro.testing import random_catalog, random_query

    rng = random.Random(seed)
    catalog = random_catalog(rng)
    query = parse_query(random_query(rng))
    if query.where is None:
        return
    for row in list(catalog["X"])[:4]:
        env = {"x": row}
        try:
            interpreted = evaluate(query.where, Env(env), catalog)
        except ExecutionError:
            with pytest.raises(ExecutionError):
                compile_expr(query.where)(dict(env), catalog)
            continue
        assert compile_expr(query.where)(dict(env), catalog) == interpreted
