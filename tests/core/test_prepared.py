"""Tests for the prepared-query API (compile once, execute many)."""

import timeit

import pytest

from repro.core.pipeline import (
    PreparedQuery,
    clear_plan_cache,
    plan_cache_stats,
    prepared,
    run_query,
)
from repro.engine.cache import clear_build_cache
from repro.engine.table import Catalog
from repro.errors import TypeCheckError, UnsupportedQueryError
from repro.model.values import Tup
from repro.workloads import (
    COUNT_BUG_NESTED,
    Q1_SAME_STREET,
    Q2_EMPS_BY_CITY,
    SECTION8_FLAT_VARIANT,
    SECTION8_QUERY,
    SUBSETEQ_BUG_NESTED,
    make_chain_workload,
    make_company,
    make_join_workload,
    make_set_workload,
)


@pytest.fixture
def catalog():
    return make_join_workload(n_left=30, match_rate=0.5, fanout=2, seed=1).catalog


class TestPreparedQuery:
    def test_execute_matches_run_query(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        expected = run_query(COUNT_BUG_NESTED, catalog, engine="physical").value
        assert prepared.execute(catalog) == expected

    def test_physical_compilation_is_cached_per_catalog(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        assert prepared.compile_for(catalog) is prepared.compile_for(catalog)

    def test_runs_against_other_catalogs_of_same_schema(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        other = make_join_workload(n_left=40, match_rate=0.3, fanout=1, seed=9).catalog
        expected = run_query(COUNT_BUG_NESTED, other, engine="interpret").value
        assert prepared.execute(other) == expected
        # Distinct compilation per catalog (statistics differ).
        assert prepared.compile_for(catalog) is not prepared.compile_for(other)

    def test_typecheck_at_prepare_time(self, catalog):
        with pytest.raises(TypeCheckError):
            PreparedQuery("SELECT r.nope FROM R r", catalog)

    def test_non_sfw_rejected(self, catalog):
        with pytest.raises(UnsupportedQueryError):
            PreparedQuery("1 + 1", catalog)

    def test_explain(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        text = prepared.explain()
        assert "NestJoin" in text

    def test_analyze(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        run = prepared.analyze(catalog)
        assert frozenset(t["out"] for t in run.rows) == prepared.execute(catalog)

    def test_interpreted_fallback(self):
        cat = Catalog()
        cat.add_rows("U", [Tup(items=frozenset({1, 2}), k=1)])
        prepared = PreparedQuery(
            "SELECT u.k FROM U u WHERE COUNT(SELECT v FROM u.items v) = 2", cat
        )
        assert prepared.execute(cat) == frozenset({1})
        # Interpreted queries may still not flatten fully.
        assert "interpreted" in [s.kind for s in prepared.translation.steps]

    def test_no_plan_fallback(self):
        cat = Catalog()
        cat.add_rows("U", [Tup(items=frozenset({1, 2}))])
        # Outer FROM over an expression: no plan; execute still answers.
        prepared = PreparedQuery(
            "SELECT s FROM (SELECT u.items FROM U u) s", cat, typecheck=False
        )
        assert prepared.plan is None
        assert prepared.execute(cat) == frozenset({frozenset({1, 2})})
        with pytest.raises(UnsupportedQueryError):
            prepared.compile_for(cat)
        assert "interpreted" in prepared.explain()

    def test_mutation_triggers_recompilation(self, catalog):
        prep = PreparedQuery(COUNT_BUG_NESTED, catalog)
        first = prep.compile_for(catalog)
        assert prep.compile_for(catalog) is first
        catalog["S"].insert([Tup(c=0, d=999)])
        second = prep.compile_for(catalog)
        assert second is not first
        # The recompiled plan answers with the new data.
        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        assert prep.execute(catalog) == oracle

    def test_prepare_once_is_faster_for_repeats(self, catalog):
        prepared = PreparedQuery(COUNT_BUG_NESTED, catalog)
        prepared.execute(catalog)  # warm the compilation cache
        t_prepared = min(timeit.repeat(lambda: prepared.execute(catalog), number=1, repeat=5))
        t_full = min(
            timeit.repeat(
                lambda: run_query(COUNT_BUG_NESTED, catalog, engine="physical"),
                number=1,
                repeat=5,
            )
        )
        # Margin absorbs scheduler noise; preparation skips parse/typecheck/
        # translate/rewrite/compile, so the gap is structural.
        assert t_prepared < t_full * 1.2


class TestPlanCache:
    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_plan_cache()
        clear_build_cache()
        yield
        clear_plan_cache()
        clear_build_cache()

    def test_same_query_text_hits(self, catalog):
        first = prepared(COUNT_BUG_NESTED, catalog)
        second = prepared(COUNT_BUG_NESTED, catalog)
        assert second is first
        assert plan_cache_stats().hits == 1

    def test_formatting_differences_share_one_entry(self, catalog):
        a = prepared(
            "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)",
            catalog,
        )
        b = prepared(
            "SELECT   r\nFROM R r\nWHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)",
            catalog,
        )
        assert b is a

    def test_same_schema_other_catalog_shares_plan(self, catalog):
        other = make_join_workload(n_left=50, match_rate=0.4, fanout=2, seed=4).catalog
        a = prepared(COUNT_BUG_NESTED, catalog)
        b = prepared(COUNT_BUG_NESTED, other)
        assert b is a
        # ... and still answers each catalog correctly.
        for cat in (catalog, other):
            oracle = run_query(COUNT_BUG_NESTED, cat, engine="interpret").value
            assert a.execute(cat) == oracle

    def test_different_schema_misses(self, catalog):
        chain = make_chain_workload(n_x=10, n_y=10, n_z=10, seed=2)
        prepared(COUNT_BUG_NESTED, catalog)
        prepared(SECTION8_QUERY, chain)
        assert plan_cache_stats().hits == 0
        assert plan_cache_stats().misses == 2

    def test_schema_change_invalidates(self, catalog):
        a = prepared(COUNT_BUG_NESTED, catalog)
        catalog.add_rows("EXTRA", [Tup(k=1)])
        b = prepared(COUNT_BUG_NESTED, catalog)
        assert b is not a

    def test_data_mutation_keeps_plan_but_refreshes_answer(self, catalog):
        prep = prepared(COUNT_BUG_NESTED, catalog)
        prep.execute(catalog)
        catalog["S"].insert([Tup(c=1, d=777)])
        assert prepared(COUNT_BUG_NESTED, catalog) is prep  # same shape
        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        assert prep.execute(catalog) == oracle

    def test_clear_resets(self, catalog):
        a = prepared(COUNT_BUG_NESTED, catalog)
        clear_plan_cache()
        assert prepared(COUNT_BUG_NESTED, catalog) is not a


class TestWarmColdDifferential:
    """Warm serving must agree with cold runs and the interpreter oracle."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        clear_plan_cache()
        clear_build_cache()
        yield
        clear_plan_cache()
        clear_build_cache()

    WORKLOADS = [
        (Q1_SAME_STREET, "company"),
        (Q2_EMPS_BY_CITY, "company"),
        (COUNT_BUG_NESTED, "join"),
        (SUBSETEQ_BUG_NESTED, "set"),
        (SECTION8_QUERY, "chain"),
        (SECTION8_FLAT_VARIANT, "chain"),
    ]

    @staticmethod
    def _catalog(kind):
        if kind == "company":
            return make_company(n_departments=6, n_employees=40, seed=3)
        if kind == "join":
            return make_join_workload(n_left=40, match_rate=0.5, fanout=2, seed=5).catalog
        if kind == "set":
            return make_set_workload(n_left=30, n_right=25, seed=6)
        return make_chain_workload(n_x=20, n_y=20, n_z=20, seed=7)

    @pytest.mark.parametrize("query,kind", WORKLOADS)
    def test_warm_equals_cold_equals_oracle(self, query, kind):
        catalog = self._catalog(kind)
        oracle = run_query(query, catalog, engine="interpret").value
        cold = run_query(query, catalog, engine="physical").value
        prep = prepared(query, catalog)
        warm1 = prep.execute(catalog)
        warm2 = prep.execute(catalog)  # second call: all cache layers hot
        assert cold == oracle
        assert warm1 == oracle
        assert warm2 == oracle

    @pytest.mark.parametrize("query,kind", WORKLOADS)
    def test_warm_survives_mutation(self, query, kind):
        catalog = self._catalog(kind)
        prep = prepared(query, catalog)
        prep.execute(catalog)
        # Mutate every table: bump versions so all cached artifacts orphan.
        for name in list(catalog):
            table = catalog[name]
            if len(table):
                table.replace_rows(list(table)[:-1])
        oracle = run_query(query, catalog, engine="interpret").value
        assert prep.execute(catalog) == oracle
