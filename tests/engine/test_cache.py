"""The execution-time cache layer: LRU, build-side reuse, invalidation."""

import pytest

from repro.algebra.plan import Join, NestJoin, Scan
from repro.engine.cache import (
    BUILD_CACHE,
    BuildSideCache,
    CacheStats,
    LRUCache,
    build_cache_stats,
    clear_build_cache,
    set_build_cache_budget,
    set_build_cache_capacity,
)
from repro.engine.executor import execute, run_physical
from repro.engine.physical import PJoin, compile_plan
from repro.engine.table import Catalog, Table
from repro.lang.parser import parse
from repro.model.values import Tup


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_build_cache()
    yield
    clear_build_cache()
    set_build_cache_capacity(64)


def catalog(nx=20, ny=30):
    cat = Catalog()
    cat.add_rows("X", [Tup(a=i, b=i % 5) for i in range(nx)])
    cat.add_rows("Y", [Tup(c=i, d=i % 5) for i in range(ny)])
    return cat


def find_join(op):
    if isinstance(op, PJoin):
        return op
    for child in op.children():
        found = find_join(child)
        if found:
            return found
    return None


class TestLRUCache:
    def test_get_put_and_counters(self):
        lru = LRUCache(capacity=2)
        assert lru.get("a") is None
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.stats.hits == 1 and lru.stats.misses == 1
        assert lru.stats.hit_rate == 0.5

    def test_evicts_least_recently_used(self):
        lru = LRUCache(capacity=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # refresh a; b is now LRU
        lru.put("c", 3)
        assert "a" in lru and "c" in lru and "b" not in lru
        assert lru.stats.evictions == 1

    def test_zero_capacity_disables(self):
        lru = LRUCache(capacity=0)
        lru.put("a", 1)
        assert len(lru) == 0 and lru.get("a") is None

    def test_clear_resets_counters(self):
        lru = LRUCache(capacity=2)
        lru.put("a", 1)
        lru.get("a")
        lru.clear()
        assert len(lru) == 0 and lru.stats == CacheStats()


class TestBuildSideKey:
    def test_key_uses_uid_and_version(self):
        t = Table("T", [Tup(a=1)])
        k1 = BuildSideCache.key("hash-build", t, "x", ("x.a",))
        t.bump_version()
        k2 = BuildSideCache.key("hash-build", t, "x", ("x.a",))
        assert k1 != k2

    def test_same_name_distinct_tables_never_alias(self):
        t1 = Table("T", [Tup(a=1)])
        t2 = Table("T", [Tup(a=2)])
        assert BuildSideCache.key("hash-build", t1, "x", ("x.a",)) != (
            BuildSideCache.key("hash-build", t2, "x", ("x.a",))
        )

    def test_unversioned_source_is_uncacheable(self):
        assert BuildSideCache.key("hash-build", [Tup(a=1)], "x", ("x.a",)) is None


class TestBuildSideReuse:
    def _compiled_hash_join(self, cat):
        plan = Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"))
        return compile_plan(plan, cat, force_algorithm="hash")

    def test_second_execution_hits(self, ):
        cat = catalog(nx=200, ny=50)  # large right: builds right
        op = self._compiled_hash_join(cat)
        join = find_join(op)
        assert join.cache_source is not None
        first = frozenset(execute(op, cat))
        second = frozenset(execute(op, cat))
        assert first == second
        assert join.cache_misses == 1 and join.cache_hits == 1
        assert build_cache_stats().hits == 1

    def test_two_plans_share_one_build(self):
        cat = catalog(nx=200, ny=50)
        op1 = self._compiled_hash_join(cat)
        op2 = self._compiled_hash_join(cat)
        frozenset(execute(op1, cat))
        frozenset(execute(op2, cat))
        assert find_join(op1).cache_misses == 1
        assert find_join(op2).cache_hits == 1

    def test_mutation_invalidates(self):
        cat = catalog(nx=200, ny=50)
        op = self._compiled_hash_join(cat)
        before = frozenset(execute(op, cat))
        cat["Y"].insert([Tup(c=999, d=1)])
        after = frozenset(execute(op, cat))
        join = find_join(op)
        assert join.cache_misses == 2 and join.cache_hits == 0
        assert len(after) > len(before)

    def test_results_stable_across_sort_merge_reuse(self):
        cat = catalog(nx=30, ny=40)
        plan = Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"))
        op = compile_plan(plan, cat, force_algorithm="sort_merge")
        assert frozenset(execute(op, cat)) == frozenset(execute(op, cat))
        assert find_join(op).cache_hits == 1

    def test_nest_join_group_table_reused(self):
        cat = catalog(nx=30, ny=40)
        plan = NestJoin(
            Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"), parse("y.c"), "ys"
        )
        op = compile_plan(plan, cat)
        join = find_join(op)
        assert join.group_source is not None
        naive = frozenset(run_physical(plan, cat))
        assert frozenset(execute(op, cat)) == naive
        assert frozenset(execute(op, cat)) == naive
        assert join.cache_hits >= 1

    def test_small_write_patches_the_index_group_table(self):
        cat = catalog(nx=30, ny=40)
        plan = NestJoin(
            Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"), parse("y.c"), "ys"
        )
        op = compile_plan(plan, cat, force_algorithm="index_nested_loop")
        join = find_join(op)
        _table, var, keys_fp = join.group_source
        y = cat["Y"]
        frozenset(execute(op, cat))
        before = BUILD_CACHE.get(BuildSideCache.key("inl-groups", y, var, keys_fp))
        y.insert([Tup(c=100, d=1)])
        result = frozenset(execute(op, cat))
        after = BUILD_CACHE.get(BuildSideCache.key("inl-groups", y, var, keys_fp))
        assert after[(1,)] == before[(1,)] | {100}
        assert after[(2,)] is before[(2,)]  # untouched groups are carried, not rebuilt
        assert result == frozenset(run_physical(plan, cat, force_algorithm="hash"))

    def test_previous_ignores_a_newer_entry(self):
        cache = BuildSideCache(capacity=8)
        t = Table("T", [Tup(a=1)])
        old = BuildSideCache.key("inl-groups", t, "x", ("x.a",))
        t.bump_version()
        new = BuildSideCache.key("inl-groups", t, "x", ("x.a",))
        cache.put(new, {"v": 2})
        assert cache.previous(old) is None  # never patch backwards
        assert cache.previous(new) is None  # nothing older is held
        t.bump_version()
        newer = BuildSideCache.key("inl-groups", t, "x", ("x.a",))
        assert cache.previous(newer) == (new[2], {"v": 2})

    def test_eviction_under_tiny_capacity(self):
        set_build_cache_capacity(1)
        cat = catalog(nx=200, ny=50)
        op1 = self._compiled_hash_join(cat)
        plan2 = Join(Scan("X", "x"), Scan("Y", "y"), parse("x.a = y.c"))
        op2 = compile_plan(plan2, cat, force_algorithm="hash")
        frozenset(execute(op1, cat))
        frozenset(execute(op2, cat))  # different keys: evicts op1's build
        frozenset(execute(op1, cat))  # must rebuild, still correct
        assert BUILD_CACHE.stats.evictions >= 1
        assert find_join(op1).cache_misses == 2

    def test_explain_shows_counters(self):
        cat = catalog(nx=200, ny=50)
        op = self._compiled_hash_join(cat)
        frozenset(execute(op, cat))
        frozenset(execute(op, cat))
        from repro.engine.explain import explain_physical

        text = explain_physical(op)
        assert "1 hits, 1 misses" in text

    def test_plain_mapping_catalog_never_cached(self):
        cat = catalog(nx=200, ny=50)
        op = self._compiled_hash_join(cat)
        plain = {"X": list(cat["X"]), "Y": list(cat["Y"])}
        assert frozenset(execute(op, plain)) == frozenset(execute(op, cat))
        # Only the Table-backed run used the cache.
        assert find_join(op).cache_misses == 1


class TestEvictionReasons:
    def test_capacity_evictions_are_labeled(self):
        lru = LRUCache(capacity=1)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.stats.evictions_by_reason == {"capacity": 1}

    def test_remove_defaults_to_version_reason(self):
        lru = LRUCache(capacity=4)
        lru.put("a", 1)
        assert lru.remove("a")
        assert not lru.remove("a")  # already gone
        assert lru.stats.evictions_by_reason == {"version": 1}

    def test_resize_to_zero_counts_clears(self):
        lru = LRUCache(capacity=4)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.resize(0)
        assert len(lru) == 0
        assert lru.stats.evictions_by_reason == {"clear": 2}

    def test_build_cache_version_displacement_is_labeled(self):
        cache = BuildSideCache(capacity=8)
        t = Table("T", [Tup(a=1)])
        k1 = BuildSideCache.key("hash-build", t, "x", ("x.a",))
        cache.put(k1, {"build": 1}, nbytes=10)
        t.bump_version()
        k2 = BuildSideCache.key("hash-build", t, "x", ("x.a",))
        cache.put(k2, {"build": 2}, nbytes=10)
        # The stale version was displaced eagerly, not LRU'd out later.
        assert cache.get(k1) is None
        assert cache.stats.evictions_by_reason.get("version") == 1
        report = cache.report()
        assert report["entries"] == 1 and report["bytes"] == 10

    def test_workload_under_tiny_budget_splits_reasons(self):
        set_build_cache_budget(1024)  # far below one build artifact
        try:
            cat = catalog(nx=200, ny=50)
            plan = Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"))
            op = compile_plan(plan, cat, force_algorithm="hash")
            baseline = frozenset(run_physical(plan, cat))
            assert frozenset(execute(op, cat)) == baseline
            assert frozenset(execute(op, cat)) == baseline  # rebuild, still right
            reasons = BUILD_CACHE.stats.evictions_by_reason
            assert reasons.get("budget", 0) >= 1
        finally:
            set_build_cache_budget(None)


class TestByteBudget:
    def test_entry_sizes_accumulate_and_report(self):
        lru = LRUCache(capacity=8, name="probe")
        lru.put("a", "x" * 1000)
        lru.put("b", "y" * 2000)
        assert lru.entry_bytes("a") and lru.entry_bytes("b")
        assert lru.total_bytes == lru.entry_bytes("a") + lru.entry_bytes("b")
        report = lru.report(top_k=1)
        assert report["bytes"] == lru.total_bytes
        assert report["top_entries"][0]["bytes"] == lru.entry_bytes("b")

    def test_explicit_nbytes_skips_the_sizer(self):
        lru = LRUCache(capacity=4, sizer=lambda value: 1 / 0)
        lru.put("a", object(), nbytes=77)
        assert lru.entry_bytes("a") == 77 and lru.total_bytes == 77

    def test_budget_is_a_hard_invariant(self):
        lru = LRUCache(capacity=100, max_bytes=5000, name="probe")
        for i in range(20):
            lru.put(i, "z" * 1000)
            assert lru.total_bytes <= 5000
        assert lru.stats.evictions_by_reason["budget"] >= 1

    def test_oversized_entry_evicts_itself(self):
        lru = LRUCache(capacity=10, max_bytes=100, name="probe")
        lru.put("big", "x" * 10_000)
        assert len(lru) == 0 and lru.total_bytes == 0

    def test_budget_eviction_emits_event_and_pressure(self):
        from repro.core.log import clear_events, events_snapshot
        from repro.engine.cachereg import CACHE_REGISTRY

        clear_events()
        CACHE_REGISTRY.reset_pressure()
        lru = LRUCache(capacity=10, max_bytes=2000, name="probe")
        for i in range(4):
            lru.put(i, "x" * 1000)
        events = events_snapshot(events=["cache_evict"])
        assert events, "expected structured cache_evict events"
        assert events[0]["cache"] == "probe"
        assert events[0]["reason"] == "budget" and events[0]["bytes"] > 0
        pressure = CACHE_REGISTRY.pressure_snapshot()
        assert pressure.get("probe", 0) >= 1

    def test_set_budget_evicts_immediately(self):
        lru = LRUCache(capacity=10, name="probe")
        for i in range(4):
            lru.put(i, "x" * 1000)
        held = lru.total_bytes
        lru.set_budget(held // 2)
        assert lru.total_bytes <= held // 2
        lru.set_budget(None)  # unbounded again
        assert lru.max_bytes is None

    def test_reinsert_replaces_recorded_size(self):
        lru = LRUCache(capacity=4)
        lru.put("a", "x" * 4000)
        lru.put("a", "x" * 10)
        assert lru.total_bytes == lru.entry_bytes("a") < 1000
