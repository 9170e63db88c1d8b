"""Process-global cache registry: one place every engine cache reports to.

The engine has three caches across three layers — the prepared-plan LRU
(:mod:`repro.core.pipeline`), the build-side cache with its hash-build /
key-set / sorted-run / group-table / columnar kinds (:mod:`repro.engine.cache`),
and each query service's version-keyed result cache
(:mod:`repro.server.service`). Each already keeps hit/miss counters, but
nothing could answer the operational question "how many bytes is this
process holding, and in what?". The registry answers it: caches register
a *provider* — a zero-state callable returning a small report dict — and
:func:`caches_snapshot` collects every report into one JSON-safe
structure that feeds ``GET /caches``, the ``repro caches`` CLI, the
Prometheus ``cache_bytes``/``cache_evictions`` families, and the
``caches`` block of ``QueryService.stats()``.

Providers are *pull*-based on purpose: byte totals are maintained
incrementally by the caches themselves (size computed once per insert —
see :mod:`repro.engine.memsize`), so a snapshot is a handful of dict
reads, cheap enough for a metrics scrape loop. A provider that raises
yields an ``{"error": ...}`` report instead of breaking the scrape.

Registration is last-writer-wins by name: module-level caches register
at import, and per-instance caches (a service's result cache) re-register
on construction so the snapshot always describes the most recent
instance — matching how ``serve_metrics`` binds one service per process.

The registry also owns the **memory-pressure** counters: every
budget-triggered eviction (an insert pushed a cache past its
``max_bytes``) is recorded per cache via :func:`record_memory_pressure`,
surfaced as the ``memory_pressure{cache}`` Prometheus family and in each
snapshot report. This module imports only the stdlib, so every layer
can use it without cycles.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = [
    "CacheRegistry",
    "CACHE_REGISTRY",
    "register_cache",
    "caches_snapshot",
    "record_memory_pressure",
]

#: Report fields every snapshot entry carries (providers may omit them;
#: the registry fills zeros). ``bytes_by_kind``/``top_entries``/
#: ``max_bytes`` are optional extras.
_COUNTER_FIELDS = ("hits", "misses", "evictions", "inserts")


class CacheRegistry:
    """Named cache providers plus per-cache memory-pressure counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._providers: dict[str, Callable[[int], dict]] = {}
        self._pressure: dict[str, int] = {}

    def register(self, name: str, provider: Callable[[int], dict]) -> None:
        """Register *provider* under *name* (replacing any previous one).

        The provider is called as ``provider(top_k)`` and must return a
        dict with at least ``bytes`` and ``entries``; counter fields and
        ``evictions_by_reason``/``bytes_by_kind``/``top_entries``/
        ``max_bytes`` ride along when the cache tracks them.
        """
        with self._lock:
            self._providers[name] = provider

    def unregister(self, name: str) -> None:
        with self._lock:
            self._providers.pop(name, None)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._providers)

    def record_pressure(self, cache: str, n: int = 1) -> None:
        """Count *n* budget-triggered evictions against *cache*."""
        with self._lock:
            self._pressure[cache] = self._pressure.get(cache, 0) + n

    def pressure_snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._pressure)

    def reset_pressure(self) -> None:
        with self._lock:
            self._pressure.clear()

    def snapshot(self, top_k: int = 3) -> dict[str, dict]:
        """Every registered cache's report, normalized, by cache name.

        ``top_k`` bounds the largest-entries list each provider returns.
        A raising provider contributes ``{"error": ...}`` with zeroed
        gauges rather than failing the whole snapshot.
        """
        with self._lock:
            providers = list(self._providers.items())
            pressure = dict(self._pressure)
        out: dict[str, dict] = {}
        for name, provider in providers:
            try:
                report = dict(provider(top_k))
            except Exception as exc:  # pragma: no cover - defensive
                report = {"error": f"{type(exc).__name__}: {exc}"}
            report.setdefault("bytes", 0)
            report.setdefault("entries", 0)
            for field in _COUNTER_FIELDS:
                report.setdefault(field, 0)
            report.setdefault("evictions_by_reason", {})
            lookups = report["hits"] + report["misses"]
            report.setdefault(
                "hit_rate", (report["hits"] / lookups) if lookups else 0.0
            )
            report["memory_pressure"] = pressure.get(name, 0)
            out[name] = report
        return out


#: The process-global registry; every cache registers here.
CACHE_REGISTRY = CacheRegistry()


def register_cache(name: str, provider: Callable[[int], dict]) -> None:
    """Register *provider* with the process-global registry."""
    CACHE_REGISTRY.register(name, provider)


def record_memory_pressure(cache: str, n: int = 1) -> None:
    """Record *n* budget evictions for *cache* on the global registry."""
    CACHE_REGISTRY.record_pressure(cache, n)


def caches_snapshot(top_k: int = 3) -> dict[str, Any]:
    """Global registry snapshot: ``{"caches": {...}, "total_bytes": N}``."""
    caches = CACHE_REGISTRY.snapshot(top_k=top_k)
    return {
        "caches": caches,
        "total_bytes": sum(r.get("bytes", 0) for r in caches.values()),
    }
