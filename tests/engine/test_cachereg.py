"""The process-global cache registry: providers, normalization, pressure."""

from repro.engine.cachereg import (
    CACHE_REGISTRY,
    CacheRegistry,
    caches_snapshot,
    record_memory_pressure,
    register_cache,
)


class TestCacheRegistry:
    def test_register_snapshot_and_normalization(self):
        reg = CacheRegistry()
        reg.register("tiny", lambda top_k: {"bytes": 128, "entries": 2})
        snap = reg.snapshot()
        report = snap["tiny"]
        assert report["bytes"] == 128 and report["entries"] == 2
        # Omitted counters are zero-filled so consumers never KeyError.
        assert report["hits"] == report["misses"] == 0
        assert report["evictions"] == report["inserts"] == 0
        assert report["evictions_by_reason"] == {}
        assert report["hit_rate"] == 0.0
        assert report["memory_pressure"] == 0

    def test_hit_rate_computed_when_absent_kept_when_present(self):
        reg = CacheRegistry()
        reg.register("a", lambda top_k: {"hits": 3, "misses": 1})
        reg.register("b", lambda top_k: {"hits": 3, "misses": 1, "hit_rate": 0.9})
        snap = reg.snapshot()
        assert snap["a"]["hit_rate"] == 0.75
        assert snap["b"]["hit_rate"] == 0.9

    def test_top_k_forwarded_to_provider(self):
        seen = []
        reg = CacheRegistry()
        reg.register("c", lambda top_k: seen.append(top_k) or {})
        reg.snapshot(top_k=7)
        assert seen == [7]

    def test_raising_provider_is_isolated(self):
        reg = CacheRegistry()
        reg.register("bad", lambda top_k: 1 / 0)
        reg.register("good", lambda top_k: {"bytes": 5})
        snap = reg.snapshot()
        assert snap["bad"]["error"].startswith("ZeroDivisionError")
        assert snap["bad"]["bytes"] == 0  # zeroed gauges, scrape survives
        assert snap["good"]["bytes"] == 5

    def test_registration_is_last_writer_wins(self):
        reg = CacheRegistry()
        reg.register("x", lambda top_k: {"bytes": 1})
        reg.register("x", lambda top_k: {"bytes": 2})
        assert reg.snapshot()["x"]["bytes"] == 2
        assert reg.names() == ["x"]

    def test_unregister(self):
        reg = CacheRegistry()
        reg.register("x", lambda top_k: {})
        reg.unregister("x")
        reg.unregister("never-registered")  # no-op, no raise
        assert reg.names() == [] and reg.snapshot() == {}

    def test_pressure_counters_merge_into_reports(self):
        reg = CacheRegistry()
        reg.register("x", lambda top_k: {"bytes": 1})
        reg.record_pressure("x")
        reg.record_pressure("x", 2)
        reg.record_pressure("unregistered")
        assert reg.snapshot()["x"]["memory_pressure"] == 3
        assert reg.pressure_snapshot() == {"x": 3, "unregistered": 1}
        reg.reset_pressure()
        assert reg.pressure_snapshot() == {}


class TestGlobalRegistry:
    def test_global_helpers_round_trip(self):
        name = "test-cachereg-probe"
        try:
            register_cache(name, lambda top_k: {"bytes": 64, "entries": 1})
            record_memory_pressure(name)
            snap = caches_snapshot()
            assert snap["caches"][name]["bytes"] == 64
            assert snap["caches"][name]["memory_pressure"] >= 1
            assert snap["total_bytes"] >= 64
        finally:
            CACHE_REGISTRY.unregister(name)

    def test_engine_caches_register_on_import(self):
        # Importing the cache layers is enough; no traffic required.
        import repro.core.pipeline  # noqa: F401
        import repro.engine.cache  # noqa: F401

        names = CACHE_REGISTRY.names()
        assert {"build", "plan"} <= set(names)
