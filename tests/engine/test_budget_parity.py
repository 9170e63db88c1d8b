"""Byte budgets are invisible to query semantics.

A cache under memory pressure may evict any artifact at any time —
including the entry just inserted — so execution must never *depend* on a
cached value being retrievable. Run every workload query with every
cache squeezed under a budget far below a single build artifact and
compare against the unbudgeted baseline.
"""

import pytest

from repro.core.pipeline import (
    clear_plan_cache,
    prepared,
    set_plan_cache_budget,
)
from repro.engine.cache import (
    BUILD_CACHE,
    clear_build_cache,
    set_build_cache_budget,
)
from repro.server.workload import mixed_catalog
from repro.workloads import queries as workload_queries

#: name → query text: every named workload query, in declaration order.
WORKLOAD_QUERIES = {
    name.lower(): getattr(workload_queries, name) for name in workload_queries.__all__
}

TINY = 2048  # bytes: below any real plan or build artifact


@pytest.fixture(scope="module")
def catalog():
    return mixed_catalog(seed=3, n_left=40, n_right=180, n_chain=10)


@pytest.fixture(scope="module")
def baseline(catalog):
    clear_plan_cache()
    clear_build_cache()
    return {
        name: prepared(text, catalog).execute(catalog)
        for name, text in WORKLOAD_QUERIES.items()
    }


@pytest.fixture
def tiny_budgets():
    set_plan_cache_budget(TINY)
    set_build_cache_budget(TINY)
    clear_plan_cache()
    clear_build_cache()
    yield
    set_plan_cache_budget(None)
    set_build_cache_budget(None)
    clear_plan_cache()
    clear_build_cache()


def test_budgets_never_change_results(catalog, baseline, tiny_budgets):
    for name, text in WORKLOAD_QUERIES.items():
        got = prepared(text, catalog).execute(catalog)
        assert got == baseline[name], name
        # Run each twice: the second execution exercises the rebuild path
        # after its artifacts were budget-evicted.
        again = prepared(text, catalog).execute(catalog)
        assert again == baseline[name], name
    assert BUILD_CACHE.stats.evictions_by_reason.get("budget", 0) >= 1
