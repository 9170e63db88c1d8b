"""Execution-time caches: reusable join build sides and sorted runs.

The serving workload this targets is *translate once, execute many*: the
same prepared plan runs against the same (unchanged) catalog thousands of
times. Re-running a hash join then rebuilds the identical build-side hash
table on every execution; re-running a sort-merge join re-sorts the same
rows. Section 6's build-side restriction makes the build table a clean
unit of reuse — it is a pure function of (table contents, key
expressions).

:class:`BuildSideCache` retains those artifacts across executions, keyed
by ``(kind, table uid, table version, probe var, key fingerprint)``:

* *table uid* is a process-unique id assigned at :class:`~repro.engine.table.Table`
  construction, so two distinct tables that happen to share a name can
  never collide;
* *table version* is bumped by every mutation (see
  :meth:`~repro.engine.table.Table.bump_version`), so a stale entry is
  simply never looked up again — invalidation is by construction;
* the *key fingerprint* is the pretty-printed key expressions, so two
  plans joining on the same keys share one build table even across
  different queries (modulo the probe variable name, which is part of the
  cached binding tuples).

Entries are held in a size-bounded LRU; hit/miss/eviction counters are
surfaced through ``EXPLAIN`` (per join operator) and
:func:`build_cache_stats` (globally).

Artifact kinds stored here: ``"hash-build"`` (key tuple → right binding
tuples), ``"hash-keys"`` (the frozenset of right key tuples a semi- or
antijoin with a trivial residual probes), ``"sorted-runs"`` (sort-merge
right runs), ``"hash-groups"`` /
``"inl-groups"`` (nest-join group tables, key tuple → frozenset),
``"columnar"`` (the vectorized engine's per-table column views, keyed by
attribute tuple with an empty probe var — see
:meth:`repro.engine.table.Table.columnar`).

Cached artifacts are immutable by convention: hash builds map key tuples
to lists of :class:`~repro.model.values.Tup` that consumers only read.

**Byte accounting and budgets.** Every insert computes the entry's deep
size once (:func:`repro.engine.memsize.deep_sizeof`) and stores it
alongside the value, so each cache maintains an incremental byte total
and can report its largest entries; both :class:`LRUCache` and
:class:`BuildSideCache` additionally accept ``max_bytes`` and evict in
LRU order until back under budget after each insert. Budget evictions
bump the registry's memory-pressure counter and emit a structured
``cache_evict`` event; all evictions are split by reason
(``capacity``/``version``/``budget``/``clear``) in
:attr:`CacheStats.evictions_by_reason`. The per-insert sizing pass can
be disabled wholesale with ``REPRO_CACHE_ACCOUNTING=0`` (byte gauges
then read 0 and budgets are not enforced) — the perf report's
``caches.accounting_overhead_pct`` measures exactly this switch. A
process-wide default budget comes from ``REPRO_CACHE_BUDGET_MB``,
applied per cache (build cache here, plan/result caches at their homes).
The build cache registers with :mod:`repro.engine.cachereg` at import.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

from repro.core.log import emit_event
from repro.engine.cachereg import record_memory_pressure, register_cache
from repro.engine.memsize import deep_sizeof

__all__ = [
    "LRUCache",
    "CacheStats",
    "BuildSideCache",
    "BUILD_CACHE",
    "build_cache_stats",
    "clear_build_cache",
    "set_build_cache_capacity",
    "set_build_cache_budget",
    "set_accounting",
    "accounting_enabled",
    "default_budget_bytes",
]

#: Environment knob: per-cache byte budget in MiB (unset = unbounded).
BUDGET_ENV = "REPRO_CACHE_BUDGET_MB"

#: Environment knob: set to ``0``/``false``/``off`` to skip per-insert
#: deep sizing entirely (bytes report 0, budgets are not enforced).
ACCOUNTING_ENV = "REPRO_CACHE_ACCOUNTING"

_accounting = os.environ.get(ACCOUNTING_ENV, "1").strip().lower() not in (
    "0",
    "false",
    "off",
)


def set_accounting(enabled: bool) -> None:
    """Toggle per-insert byte sizing process-wide (see module docstring)."""
    global _accounting
    _accounting = bool(enabled)


def accounting_enabled() -> bool:
    return _accounting


def default_budget_bytes() -> int | None:
    """The ``REPRO_CACHE_BUDGET_MB`` budget in bytes, or None if unset."""
    raw = os.environ.get(BUDGET_ENV)
    if not raw:
        return None
    try:
        mb = float(raw)
    except ValueError:
        return None
    return int(mb * 1024 * 1024) if mb > 0 else None


def _key_summary(key: Hashable, limit: int = 120) -> str:
    text = repr(key)
    return text if len(text) <= limit else text[: limit - 1] + "…"


@dataclass
class CacheStats:
    """Hit/miss/eviction/insert counters for one cache.

    ``evictions`` stays the total across reasons;
    ``evictions_by_reason`` splits it into ``capacity`` (LRU bound),
    ``version`` (a newer table version displaced the entry), ``budget``
    (byte budget), and ``clear`` (bulk drop without a stats reset).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    inserts: int = 0
    evictions_by_reason: dict = field(default_factory=dict)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def record_eviction(self, reason: str) -> None:
        self.evictions += 1
        self.evictions_by_reason[reason] = self.evictions_by_reason.get(reason, 0) + 1

    def render(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.evictions} evictions ({self.hit_rate:.0%} hit rate)"
        )


class LRUCache:
    """A size- and byte-bounded least-recently-used mapping with counters.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry once ``capacity`` is exceeded. A non-positive capacity disables
    the cache entirely (every lookup misses, nothing is stored), which
    keeps call sites free of conditionals.

    Each stored value's deep size is computed once at insert (outside the
    lock — sizing a large artifact must not stall concurrent readers) and
    kept alongside the entry; :attr:`total_bytes` is maintained
    incrementally. With ``max_bytes`` set, an insert that pushes the
    total over budget evicts in LRU order until back under — possibly
    dropping the entry just inserted, so the byte bound is a hard
    invariant, not a soft target. Callers that already know an entry's
    size pass ``nbytes`` to :meth:`put` and skip the sizing pass.

    All operations (including the counter updates) are guarded by one
    internal lock, so a cache instance can be shared by the query
    service's worker threads. The lock protects each call, not
    check-then-act sequences across calls; callers needing a single
    writer for a miss path (e.g. :func:`repro.core.pipeline.prepared`)
    layer their own lock on top, using :meth:`peek` for the re-check so
    the counters are not skewed.
    """

    def __init__(
        self,
        capacity: int,
        max_bytes: int | None = None,
        name: str | None = None,
        sizer: Callable[[Any], int] = deep_sizeof,
        describe_key: Callable[[Hashable], Any] = _key_summary,
    ):
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.name = name
        self.sizer = sizer
        self.describe_key = describe_key
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self.total_bytes = 0
        self.stats = CacheStats()
        self._lock = threading.RLock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touching neither recency nor the counters."""
        with self._lock:
            return self._entries.get(key, default)

    def entry_bytes(self, key: Hashable) -> int | None:
        """The recorded size of *key*'s entry, or None when absent."""
        with self._lock:
            return self._sizes.get(key)

    def _evict_lru(self, reason: str) -> None:
        # Caller holds the lock.
        key, _ = self._entries.popitem(last=False)
        nbytes = self._sizes.pop(key, 0)
        self.total_bytes -= nbytes
        self.stats.record_eviction(reason)
        if reason == "budget":
            record_memory_pressure(self.name or "cache")
            emit_event(
                "cache_evict",
                level="debug",
                cache=self.name or "cache",
                reason=reason,
                bytes=nbytes,
                key=_key_summary(key),
            )

    def put(self, key: Hashable, value: Any, nbytes: int | None = None) -> None:
        if nbytes is None and (_accounting or self.max_bytes is not None):
            nbytes = self.sizer(value)
        with self._lock:
            if self.capacity <= 0:
                return
            old = self._sizes.pop(key, None)
            if old is not None:
                self.total_bytes -= old
                self._entries.move_to_end(key)
            self._entries[key] = value
            size = nbytes or 0
            self._sizes[key] = size
            self.total_bytes += size
            self.stats.inserts += 1
            while len(self._entries) > self.capacity:
                self._evict_lru("capacity")
            if self.max_bytes is not None:
                while self.total_bytes > self.max_bytes and self._entries:
                    self._evict_lru("budget")

    def remove(self, key: Hashable, reason: str = "version") -> bool:
        """Drop *key* if present, counting an eviction under *reason*."""
        with self._lock:
            if key not in self._entries:
                return False
            del self._entries[key]
            self.total_bytes -= self._sizes.pop(key, 0)
            self.stats.record_eviction(reason)
            return True

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting (or dropping everything) as needed."""
        with self._lock:
            self.capacity = capacity
            if capacity <= 0:
                while self._entries:
                    self._evict_lru("clear")
                return
            while len(self._entries) > capacity:
                self._evict_lru("capacity")

    def set_budget(self, max_bytes: int | None) -> None:
        """Change the byte budget, evicting immediately if over it."""
        with self._lock:
            self.max_bytes = max_bytes
            if max_bytes is not None:
                while self.total_bytes > max_bytes and self._entries:
                    self._evict_lru("budget")

    def top_entries(self, k: int = 3) -> list[dict]:
        """The *k* largest entries as ``{"key", "bytes"}`` dicts."""
        if k <= 0:
            return []
        with self._lock:
            ranked = sorted(self._sizes.items(), key=lambda kv: kv[1], reverse=True)
        return [
            {"key": self.describe_key(key), "bytes": nbytes} for key, nbytes in ranked[:k]
        ]

    def report(self, top_k: int = 3) -> dict:
        """Registry-shaped snapshot (see :mod:`repro.engine.cachereg`)."""
        with self._lock:
            stats = self.stats
            out = {
                "bytes": self.total_bytes,
                "entries": len(self._entries),
                "max_bytes": self.max_bytes,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "inserts": stats.inserts,
                "evictions_by_reason": dict(stats.evictions_by_reason),
                "hit_rate": stats.hit_rate,
            }
        out["top_entries"] = self.top_entries(top_k)
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self):
        with self._lock:
            return list(self._entries)

    def clear(self, reset_stats: bool = True) -> None:
        """Drop every entry; by default the counters reset too.

        With ``reset_stats=False`` the counters survive and each dropped
        entry is recorded as an eviction with reason ``"clear"``.
        """
        with self._lock:
            if reset_stats:
                self._entries.clear()
                self._sizes.clear()
                self.stats = CacheStats()
            else:
                while self._entries:
                    self._evict_lru("clear")
            self.total_bytes = 0


@dataclass
class BuildSideCache:
    """Process-wide cache of join build sides, shared by all plans.

    Keys are fully self-describing (uid + version), so no explicit
    invalidation hook is needed: mutating a table bumps its version and
    orphans every entry built from the old contents. Orphans are also
    evicted eagerly (reason ``"version"``) when the successor entry for
    the same (kind, uid, var, keys) lands, instead of merely aging out of
    the LRU — with byte budgets, holding a dead artifact has a real cost.
    """

    capacity: int = 64
    max_bytes: int | None = None
    _lru: LRUCache = field(init=False)
    _by_identity: dict = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        self._lru = LRUCache(self.capacity, max_bytes=self.max_bytes, name="build")
        self._write_lock = threading.RLock()

    @staticmethod
    def key(kind: str, source: Any, var: str, keys_fp: tuple[str, ...]):
        """A cache key for *source* (a Table), or None if it is unversioned.

        Plain mappings/lists passed as catalogs have no (uid, version)
        identity, so their build sides are never cached.
        """
        uid = getattr(source, "uid", None)
        version = getattr(source, "version", None)
        if uid is None or version is None:
            return None
        return (kind, uid, version, var, keys_fp)

    def get(self, key: Hashable) -> Any:
        return self._lru.get(key)

    def previous(self, key: Hashable) -> tuple[int, Any] | None:
        """``(version, artifact)`` cached for *key*'s table at an older
        version, or None: the start for an artifact patched rather than
        rebuilt. Touches neither recency nor the counters."""
        kind, uid, version, var, keys_fp = key
        older = self._by_identity.get((kind, uid, var, keys_fp))
        if older is None or older[2] >= version:
            return None
        artifact = self._lru.peek(older)
        return None if artifact is None else (older[2], artifact)

    def put(self, key: Hashable, value: Any, nbytes: int | None = None) -> None:
        with self._write_lock:
            kind, uid, _version, var, keys_fp = key
            ident = (kind, uid, var, keys_fp)
            stale = self._by_identity.get(ident)
            if stale is not None and stale != key:
                self._lru.remove(stale, reason="version")
            self._by_identity[ident] = key
            self._lru.put(key, value, nbytes=nbytes)
            # Identities accumulate as tables come and go; prune the map
            # against live entries once it clearly outgrows the LRU.
            if len(self._by_identity) > 4 * max(self.capacity, 1):
                self._by_identity = {
                    i: k for i, k in self._by_identity.items() if k in self._lru
                }

    def entry_bytes(self, key: Hashable) -> int | None:
        """Recorded deep size of *key*'s artifact (None when absent)."""
        return self._lru.entry_bytes(key) if key is not None else None

    @property
    def stats(self) -> CacheStats:
        return self._lru.stats

    @property
    def total_bytes(self) -> int:
        return self._lru.total_bytes

    def bytes_by_kind(self) -> dict[str, int]:
        """Byte totals grouped by artifact kind (``key[0]``)."""
        with self._lru._lock:
            out: dict[str, int] = {}
            for key, nbytes in self._lru._sizes.items():
                out[key[0]] = out.get(key[0], 0) + nbytes
        return out

    def report(self, top_k: int = 3) -> dict:
        """Registry-shaped snapshot with per-kind bytes and keyed top entries."""
        out = self._lru.report(top_k=0)
        out["bytes_by_kind"] = self.bytes_by_kind()
        if top_k <= 0:
            out["top_entries"] = []
            return out
        with self._lru._lock:
            ranked = sorted(
                self._lru._sizes.items(), key=lambda kv: kv[1], reverse=True
            )[:top_k]
        out["top_entries"] = [
            {
                "kind": key[0],
                "uid": key[1],
                "version": key[2],
                "var": key[3],
                "keys": list(key[4]),
                "bytes": nbytes,
            }
            for key, nbytes in ranked
        ]
        return out

    def __len__(self) -> int:
        return len(self._lru)

    def clear(self) -> None:
        with self._write_lock:
            self._lru.clear()
            self._by_identity.clear()

    def resize(self, capacity: int) -> None:
        self.capacity = capacity
        self._lru.resize(capacity)

    def set_budget(self, max_bytes: int | None) -> None:
        """Change the byte budget (None = unbounded), evicting if over."""
        self.max_bytes = max_bytes
        self._lru.set_budget(max_bytes)


#: The process-wide build-side cache used by the physical join operators.
#: ``REPRO_CACHE_BUDGET_MB`` (if set) bounds its bytes from first import.
BUILD_CACHE = BuildSideCache(max_bytes=default_budget_bytes())

register_cache("build", BUILD_CACHE.report)


def build_cache_stats() -> CacheStats:
    """Counters of the global build-side cache."""
    return BUILD_CACHE.stats


def clear_build_cache() -> None:
    """Drop every cached build side and reset counters (mainly for tests)."""
    BUILD_CACHE.clear()


def set_build_cache_capacity(capacity: int) -> None:
    """Resize the global build-side cache (0 disables it)."""
    BUILD_CACHE.resize(capacity)


def set_build_cache_budget(max_bytes: int | None) -> None:
    """Byte-budget the global build-side cache (None = unbounded)."""
    BUILD_CACHE.set_budget(max_bytes)
