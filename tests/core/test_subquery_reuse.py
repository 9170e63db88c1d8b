"""Common subquery elimination: identical subqueries materialize once."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import NestJoin
from repro.core.pipeline import prepare, prepared, run_query
from repro.engine.cache import BUILD_CACHE, clear_build_cache
from repro.engine.table import Catalog
from repro.model.values import Tup
from repro.testing import random_catalog


Z = "(SELECT y.a FROM Y y WHERE x.b = y.b)"


@pytest.fixture
def catalog():
    rng = random.Random(3)
    return random_catalog(rng, max_rows=8)


def count_nestjoins(plan):
    n = int(isinstance(plan, NestJoin))
    return n + sum(count_nestjoins(c) for c in plan.children())


class TestReuse:
    def test_two_grouping_conjuncts_share_one_nestjoin(self, catalog):
        query = f"SELECT x FROM X x WHERE x.c = COUNT({Z}) AND x.a SUBSETEQ {Z}"
        tr = prepare(query, catalog)
        kinds = [s.kind for s in tr.steps]
        assert kinds.count("nestjoin") == 1
        assert kinds.count("reuse-nested") == 1
        assert count_nestjoins(tr.plan) == 1

    def test_flat_conjunct_reuses_materialized_subquery(self, catalog):
        # The first conjunct groups; the second would be a semijoin but the
        # set is already at hand, so it becomes a plain selection.
        query = f"SELECT x FROM X x WHERE x.c = COUNT({Z}) AND x.c IN {Z}"
        tr = prepare(query, catalog)
        kinds = [s.kind for s in tr.steps]
        assert kinds == ["nestjoin", "reuse-nested"]
        assert count_nestjoins(tr.plan) == 1

    def test_select_clause_reuses_where_clause_materialization(self, catalog):
        query = f"SELECT (c = x.c, zs = {Z}) FROM X x WHERE x.c = COUNT({Z})"
        tr = prepare(query, catalog)
        kinds = [s.kind for s in tr.steps]
        assert kinds.count("nestjoin") == 1
        assert "reuse-nested" in kinds
        assert count_nestjoins(tr.plan) == 1

    def test_different_subqueries_do_not_share(self, catalog):
        other = "(SELECT y.a FROM Y y WHERE x.c = y.b)"
        query = f"SELECT x FROM X x WHERE x.c = COUNT({Z}) AND x.a SUBSETEQ {other}"
        tr = prepare(query, catalog)
        assert count_nestjoins(tr.plan) == 2

    def test_semijoin_first_does_not_materialize(self, catalog):
        # A semijoin produces no nested attribute, so a later grouping
        # conjunct must build its own nest join.
        query = f"SELECT x FROM X x WHERE x.c IN {Z} AND x.c = COUNT({Z})"
        tr = prepare(query, catalog)
        kinds = [s.kind for s in tr.steps]
        assert kinds == ["semijoin", "nestjoin"]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_reuse_preserves_semantics(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng)
    query = (
        f"SELECT (c = x.c, zs = {Z}) FROM X x "
        f"WHERE x.c <= COUNT({Z}) AND x.a SUBSETEQ {Z}"
    )
    oracle = run_query(query, catalog, engine="interpret").value
    assert run_query(query, catalog, engine="logical").value == oracle
    assert run_query(query, catalog, engine="physical").value == oracle


def test_reuse_builds_the_shared_group_table_once():
    # The saving reuse buys, counted rather than timed: one group table for
    # the two identical subqueries, two for the distinct ones.
    from repro.workloads import make_join_workload

    wl = make_join_workload(n_left=300, match_rate=0.6, fanout=3, seed=5)
    cat = wl.catalog
    reused = (
        "SELECT r FROM R r WHERE r.b = COUNT(SELECT s.d FROM S s WHERE r.c = s.c) "
        "AND r.b <= COUNT(SELECT s.d FROM S s WHERE r.c = s.c)"
    )
    distinct = (
        "SELECT r FROM R r WHERE r.b = COUNT(SELECT s.d FROM S s WHERE r.c = s.c) "
        "AND r.b <= COUNT(SELECT s.d + 0 FROM S s WHERE r.c = s.c)"
    )
    assert prepare(reused, cat).join_kinds() == ["nestjoin"]
    assert prepare(distinct, cat).join_kinds() == ["nestjoin", "nestjoin"]

    def group_tables():
        return [key for key in BUILD_CACHE._lru.keys() if key[0].endswith("groups")]

    clear_build_cache()
    plan = prepared(reused, cat)
    answer = plan.execute(cat)
    assert answer == run_query(reused, cat, engine="interpret").value
    assert len(group_tables()) == 1
    assert (BUILD_CACHE.stats.inserts, BUILD_CACHE.stats.hits) == (1, 0)
    # Run again: the one nest join probes the one table, straight from the cache.
    assert plan.execute(cat) == answer
    assert (BUILD_CACHE.stats.inserts, BUILD_CACHE.stats.hits) == (1, 1)

    clear_build_cache()
    assert prepared(distinct, cat).execute(cat) == run_query(distinct, cat, engine="interpret").value
    assert len(group_tables()) == 2
    assert BUILD_CACHE.stats.inserts == 2
