"""Parameterised plans against the interpreter on the literal text.

A ``$name`` parameter is an opaque closed scalar to the classifier, the
normaliser, the rewriter and the physical compiler, so one plan must be
correct for every binding: ``prepared(text, params=p).execute(cat, p)``
equals the interpreter on the text with each parameter written as a
literal. That includes ``COUNT(SELECT …) = $n``, which must not take the
``= 0`` antijoin special case (at ``n = 0`` the COUNT-bug danglings must
survive), and joins whose build side mentions a parameter, which must not
be reused across bindings through the build cache.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import NestJoin, Scan
from repro.core import pipeline
from repro.core.pipeline import (
    clear_plan_cache,
    plan_cache_stats,
    prepared,
    run_query,
    set_plan_cache_budget,
)
from repro.engine.cache import clear_build_cache, default_budget_bytes
from repro.engine.executor import execute_set
from repro.engine.joins.common import JoinSpec
from repro.engine.physical import (
    JOIN_ALGORITHMS,
    PJoin,
    _group_source,
    _scan_fingerprint,
    compile_plan,
)
from repro.engine.table import Catalog
from repro.errors import NameError_, TypeCheckError
from repro.lang.ast import TRUE, Arith, ArithOp, Attr, Const, Param, Var
from repro.lang.params import param_scope
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.model.values import Tup

ENGINES = ("interpret", "logical", "physical")


def _catalog() -> Catalog:
    cat = Catalog()
    cat.add_rows(
        "R",
        [
            Tup(a=i % 7, b=i % 3, c=i % 5, f=i / 4, s=f"k{i % 4}", t=i % 2 == 0)
            for i in range(24)
        ],
    )
    # c in 0..3 only: R rows with c = 4 dangle (COUNT = 0).
    cat.add_rows("S", [Tup(c=j % 4, d=j) for j in range(9)])
    return cat


CAT = _catalog()


def literal(text: str, params: dict) -> str:
    for name, value in params.items():
        text = text.replace(f"${name}", pretty(Const(value)))
    return text


def assert_parity(text: str, params: dict) -> None:
    expected = run_query(literal(text, params), CAT, engine="interpret").value
    assert prepared(text, CAT, params=params).execute(CAT, params) == expected, params
    for engine in ENGINES:
        assert run_query(text, CAT, engine=engine, params=params).value == expected, engine


ORDER_OPS = ("=", "<>", "<", "<=", ">", ">=")


@pytest.mark.parametrize("op", ORDER_OPS)
@settings(max_examples=15, deadline=None)
@given(v=st.integers(-2, 8))
def test_int_binding_every_comparison(op, v):
    assert_parity(f"SELECT r FROM R r WHERE r.a {op} $v", {"v": v})
    assert_parity(f"SELECT r.a FROM R r WHERE $v {op} r.c AND r.b = 1", {"v": v})


@pytest.mark.parametrize("op", ORDER_OPS)
@settings(max_examples=15, deadline=None)
@given(v=st.floats(-1.0, 7.0, allow_nan=False).map(lambda x: round(x * 4) / 4))
def test_float_binding_every_comparison(op, v):
    assert_parity(f"SELECT r.f FROM R r WHERE r.f {op} $v", {"v": v})
    assert_parity(f"SELECT r.a FROM R r WHERE r.a {op} $v", {"v": v})


@pytest.mark.parametrize("op", ORDER_OPS)
@settings(max_examples=10, deadline=None)
@given(v=st.sampled_from(["k0", "k1", "k3", "k9", "", "a'b"]))
def test_str_binding_every_comparison(op, v):
    assert_parity(f"SELECT r.s FROM R r WHERE r.s {op} $v", {"v": v})


@pytest.mark.parametrize("op", ("=", "<>"))
@given(v=st.booleans())
@settings(max_examples=4, deadline=None)
def test_bool_binding(op, v):
    assert_parity(f"SELECT r.a FROM R r WHERE r.t {op} $v", {"v": v})


@settings(max_examples=15, deadline=None)
@given(v=st.integers(-1, 9))
def test_parameter_inside_correlated_subqueries(v):
    assert_parity("SELECT r FROM R r WHERE $v IN (SELECT s.d FROM S s WHERE s.c = r.c)", {"v": v})
    assert_parity(
        "SELECT r.a FROM R r WHERE $v NOT IN (SELECT s.d FROM S s WHERE s.c = r.c)", {"v": v}
    )
    assert_parity(
        "SELECT r FROM R r WHERE EXISTS s IN (SELECT s FROM S s WHERE s.c = r.c) (s.d > $v)",
        {"v": v},
    )


COUNT_EQ = "SELECT r FROM R r WHERE COUNT(SELECT s FROM S s WHERE s.c = r.c) = $n"


@pytest.mark.parametrize("n", (0, 1, 2))
def test_count_equals_parameter(n):
    assert_parity(COUNT_EQ, {"n": n})
    assert_parity(
        "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE s.c = r.c AND s.d > $n)",
        {"n": n},
    )


def test_count_equals_parameter_keeps_the_dangling_rows():
    danglings = {row for row in CAT["R"] if row["c"] == 4}
    assert danglings
    assert prepared(COUNT_EQ, CAT, params={"n": 0}).execute(CAT, {"n": 0}) == danglings


def test_count_equals_parameter_is_a_nest_join_not_the_zero_antijoin():
    # The literal 0 may take Table 2's count-zero row; the parameter never
    # does, or the plan would be wrong for n = 1.
    assert prepared(literal(COUNT_EQ, {"n": 0}), CAT).rewrite_kinds() == ("antijoin",)
    pq = prepared(COUNT_EQ, CAT, params={"n": 0})
    assert pq.rewrite_kinds() == ("nestjoin",)
    assert prepared(COUNT_EQ, CAT, params={"n": 1}) is pq


class TestPlanCache:
    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_plan_cache()
        yield
        clear_plan_cache()

    def test_one_entry_for_every_binding(self):
        text = "SELECT r FROM R r WHERE r.a = $key"
        for key in range(1000):
            assert prepared(text, CAT, params={"key": key}).execute(CAT, {"key": key}) == {
                row for row in CAT["R"] if row["a"] == key
            }
        assert len(pipeline._PLAN_CACHE) == 1
        stats = plan_cache_stats()
        assert (stats.hits, stats.misses) == (999, 1)

    def test_binding_types_key_the_plan(self):
        text = "SELECT r FROM R r WHERE r.a = $key"
        as_int = prepared(text, CAT, params={"key": 1})
        as_float = prepared(text, CAT, params={"key": 1.5})
        assert as_int is not as_float
        assert prepared(text, CAT, params={"key": 2}) is as_int

    def test_mistyped_binding_raises_typecheck_error(self):
        with pytest.raises(TypeCheckError):
            prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": "x"})
        with pytest.raises(TypeCheckError):
            run_query("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": "x"})

    def test_unbound_parameter_raises(self):
        with pytest.raises(NameError_, match=r"\$key"):
            prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"other": 1})
        pq = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": 1})
        with pytest.raises(NameError_, match=r"\$key"):
            pq.execute(CAT)

    def test_untyped_preparation_needs_no_binding(self):
        pq = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, typecheck=False)
        assert len(pq.execute(CAT, {"key": 3})) == len(
            [row for row in CAT["R"] if row["a"] == 3]
        )

    def test_repeated_text_skips_the_parse_and_counts_as_a_hit(self, monkeypatch):
        text = "SELECT r FROM R r WHERE r.a = $key"
        first = prepared(text, CAT, params={"key": 1})
        monkeypatch.setattr(pipeline, "parse", _no_parse)
        assert prepared(text, CAT, params={"key": 2}) is first
        assert plan_cache_stats().hits == 1

    def test_formatting_variants_share_one_plan(self):
        a = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": 1})
        b = prepared("select r  from R r where r.a=$key", CAT, params={"key": 2})
        assert a is b

    def test_clear_empties_the_text_memo(self):
        text = "SELECT r FROM R r WHERE r.a = 1"
        prepared(text, CAT)
        assert text in pipeline._SHAPES
        clear_plan_cache()
        assert not pipeline._SHAPES
        prepared(text, CAT)
        assert (plan_cache_stats().hits, plan_cache_stats().misses) == (0, 1)

    def test_memo_never_keeps_an_evicted_plan_alive(self):
        text = "SELECT r FROM R r WHERE r.a = $key"
        try:
            set_plan_cache_budget(1)  # every insert is evicted at once
            ref = weakref.ref(prepared(text, CAT, params={"key": 1}))
            gc.collect()
            assert ref() is None
            assert text in pipeline._SHAPES
            assert prepared(text, CAT, params={"key": 1}).execute(CAT, {"key": 1})
        finally:
            set_plan_cache_budget(default_budget_bytes())

    def test_memo_is_bounded(self):
        for i in range(pipeline._SHAPES_CAPACITY + 5):
            prepared(f"SELECT r FROM R r WHERE r.a = {i}", CAT)
        assert len(pipeline._SHAPES) == pipeline._SHAPES_CAPACITY


def _no_parse(text):
    raise AssertionError(f"re-parsed {text!r}")


class TestBuildCacheSafety:
    """A build side that mentions a parameter is never reused across bindings."""

    KEY_TEXT = "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE s.c + $k = r.c)"
    FUNC_TEXT = "SELECT (a = r.a, zs = (SELECT s.d + $k FROM S s WHERE s.c = r.c)) FROM R r"

    @pytest.fixture(autouse=True)
    def fresh(self):
        clear_plan_cache()
        clear_build_cache()
        yield

    @pytest.mark.parametrize("text", (KEY_TEXT, FUNC_TEXT))
    @pytest.mark.parametrize("algorithm", (None,) + JOIN_ALGORITHMS)
    def test_alternating_bindings_with_a_warm_build_cache(self, text, algorithm):
        plan = prepared(text, CAT, params={"k": 0}).plan
        physical = compile_plan(plan, CAT, force_algorithm=algorithm)
        for k in (0, 1, 0, 1, 2, 0):
            expected = run_query(literal(text, {"k": k}), CAT, engine="interpret").value
            with param_scope({"k": k}):
                assert execute_set(physical, CAT) == expected, (algorithm, k)

    def test_parameterised_build_sides_are_not_cacheable(self):
        for text in (self.KEY_TEXT, self.FUNC_TEXT):
            physical = prepared(text, CAT, params={"k": 0}).compile_for(CAT)
            join = next(op for op in _operators(physical) if isinstance(op, PJoin))
            assert join.group_source is None
            if text == self.KEY_TEXT:
                assert join.cache_source is None

    def test_fingerprints_refuse_parameters(self):
        s_c = Attr(Var("s"), "c")
        with_param = Arith(ArithOp.ADD, s_c, Param("k"))
        assert _scan_fingerprint(Scan("S", "s"), JoinSpec((Attr(Var("r"), "c"),), (s_c,), TRUE))
        spec = JoinSpec((Attr(Var("r"), "c"),), (with_param,), TRUE)
        assert _scan_fingerprint(Scan("S", "s"), spec) is None
        plain = JoinSpec((Attr(Var("r"), "c"),), (s_c,), TRUE)
        nest = NestJoin(Scan("R", "r"), Scan("S", "s"), parse("r.c = s.c"), with_param, "zs")
        assert _group_source(nest, plain, "nest", with_param, "hash") is None
        assert _group_source(nest, plain, "nest", Attr(Var("s"), "d"), "hash") is not None


def _operators(op):
    yield op
    for child in op.children():
        yield from _operators(child)
