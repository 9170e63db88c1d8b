"""In-memory tables and the catalog.

A :class:`Table` is a named, typed collection of row tuples (class
extensions in TM terms). The :class:`Catalog` maps extension names to
tables; it supports the mapping protocol so it plugs directly into the
interpreter (:func:`repro.lang.eval.evaluate`) as the table lookup.

Row order is preserved (useful for deterministic benchmarks); set semantics
are available through :meth:`Table.as_set`.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import CatalogError
from repro.model.schema import Schema
from repro.model.types import TupleType, Type, type_of_value, unify
from repro.model.validate import check
from repro.model.values import Tup

__all__ = ["Table", "Catalog"]

#: Process-unique table ids; cache keys use (uid, version) so two distinct
#: tables sharing a name can never alias each other's cached artifacts.
_TABLE_UIDS = itertools.count(1)

#: A mutation that adds or removes at most this many rows patches the built
#: hash indexes and is logged for :meth:`Table.changed_rows`; a larger one
#: drops both for the next query to rebuild.
_PATCH_ROWS = 64
#: How many small writes :meth:`Table.changed_rows` can look back over.
_CHANGE_LOG = 8


def index_key(row: Tup, attrs: tuple[str, ...]) -> tuple:
    """*row*'s key in the hash index on *attrs* (None for a missing attr)."""
    if len(attrs) == 1:
        return (row.get(attrs[0]),)
    return tuple(row.get(a) for a in attrs)


def _patched_index(
    index: dict[tuple, list[Tup]], attrs: tuple[str, ...], added, removed
) -> dict[tuple, list[Tup]] | None:
    """*index* without the *removed* row objects and with *added* appended.

    Buckets keep table order, so the result equals a rebuild over the new
    rows — unless a removed object also stays in the table (the same
    object stored twice, one copy deleted): identity cannot tell the two
    apart, the count of dropped entries shows it, and None says rebuild.
    """
    out = dict(index)
    if removed:
        gone: dict[tuple, set[int]] = {}
        for row in removed:
            gone.setdefault(index_key(row, attrs), set()).add(id(row))
        dropped = 0
        for key, ids in gone.items():
            bucket = out.get(key, ())
            left = [row for row in bucket if id(row) not in ids]
            dropped += len(bucket) - len(left)
            if left:
                out[key] = left
            else:
                out.pop(key, None)
        if dropped != len(removed):
            return None
    for row in added:
        key = index_key(row, attrs)
        out[key] = out.get(key, []) + [row]
    return out


class Table:
    """A named, typed, ordered collection of row tuples.

    Tables are *versioned*: every mutation bumps :attr:`version` and drops
    the derived artifacts (the set view and hash indexes; a small insert or
    delete patches the built indexes instead). Caches keyed by
    ``(uid, version)`` — prepared-plan compilations, join build sides —
    therefore invalidate by construction, without registration hooks.

    Mutations are atomic with respect to lock-free readers: each mutating
    method builds (and validates) the complete new row list first, then —
    under the table's lock — drops the derived artifacts, swaps in the new
    list *as a fresh object*, and only then advances the version. A reader
    that observes the new version can therefore never see a stale index or
    set view, and a failed validation leaves the table untouched. Readers
    that cache derived artifacts (:meth:`as_set`, :meth:`hash_index`)
    snapshot ``self.rows`` and publish their result only if that exact
    list object is still current, so a build that raced a mutation is used
    once by its builder but never installed for the new version.
    """

    def __init__(
        self,
        name: str,
        rows: Iterable[Tup],
        row_type: TupleType | None = None,
        validate: bool = False,
        key: tuple[str, ...] | None = None,
    ):
        self.name = name
        self.rows: list[Tup] = list(rows)
        for row in self.rows:
            if not isinstance(row, Tup):
                raise CatalogError(f"table {name!r}: rows must be Tup values, got {type(row).__name__}")
        if row_type is None:
            row_type = self._infer_row_type()
        self.row_type = row_type
        self.key = key
        if validate:
            for i, row in enumerate(self.rows):
                check(row, self.row_type, path=f"{name}[{i}]")
            if key is not None:
                self._check_key(key)
        self.uid = next(_TABLE_UIDS)
        self.version = 1
        self._as_set: frozenset[Tup] | None = None
        self._indexes: dict[tuple[str, ...], dict[tuple, list[Tup]]] = {}
        #: ((version, rows inserted or deleted to reach it), ...) of the
        #: latest small writes, oldest first; any other write empties it.
        self._changes: tuple[tuple[int, tuple[Tup, ...]], ...] = ()
        self._lock = threading.RLock()

    def _infer_row_type(self) -> TupleType:
        if not self.rows:
            # Nothing to infer from: any row shape is acceptable. Callers
            # wanting a precise type for an empty table pass row_type.
            from repro.model.types import ANY

            return ANY  # type: ignore[return-value]
        merged: Type | None = type_of_value(self.rows[0])
        for row in self.rows[1:]:
            t = type_of_value(row)
            merged = unify(merged, t)  # type: ignore[arg-type]
            if merged is None:
                raise CatalogError(
                    f"table {self.name!r}: rows have incompatible types; pass row_type explicitly"
                )
        assert isinstance(merged, TupleType)
        return merged

    def _check_key(self, key: tuple[str, ...], rows: list[Tup] | None = None) -> None:
        seen: set[tuple] = set()
        for row in self.rows if rows is None else rows:
            k = tuple(row[a] for a in key)
            if k in seen:
                raise CatalogError(f"table {self.name!r}: duplicate key {k!r} on {key}")
            seen.add(k)

    def as_set(self) -> frozenset[Tup]:
        """The rows as a duplicate-free set (cached)."""
        cached = self._as_set
        if cached is not None:
            return cached
        rows = self.rows
        value = frozenset(rows)
        with self._lock:
            # Publish only if no mutation swapped the row list meanwhile.
            if self.rows is rows:
                self._as_set = value
        return value

    def columnar(self, attrs: tuple[str, ...]) -> tuple[list[Tup], tuple[list, ...]]:
        """An aligned ``(rows, column lists)`` snapshot for *attrs*.

        The columnar view is what the vectorized kernels build group
        tables and hash builds from in one pass over the key columns. It
        is a pure function of the table contents, so it is cached in
        :data:`repro.engine.cache.BUILD_CACHE` keyed by this table's
        ``(uid, version)`` — shared across queries and plans, invalidated
        by any mutation, and bounded by the cache's LRU policy. The row
        list returned is the exact snapshot the columns were built from,
        so callers can zip them without racing a concurrent mutation.
        """
        from repro.engine.cache import BUILD_CACHE

        key = BUILD_CACHE.key("columnar", self, "", attrs)
        cached = BUILD_CACHE.get(key) if key is not None else None
        if cached is not None:
            return cached
        rows = self.rows
        view = (rows, tuple([row.get(a) for row in rows] for a in attrs))
        # Publish only if the table did not mutate while we built (the
        # same re-derive-then-put pattern as the join build-side cache).
        if key is not None and BUILD_CACHE.key("columnar", self, "", attrs) == key:
            BUILD_CACHE.put(key, view)
        return view

    def hash_index(self, attrs: tuple[str, ...]) -> dict[tuple, list[Tup]]:
        """A persistent hash index on *attrs* (built on first use, cached).

        Mutations invalidate the index (see :meth:`bump_version`), except
        that a small insert or delete carries it over patched (see
        :meth:`_publish`); once built it is shared by every query against
        the current version —
        this is what makes the index-nested-loop join cheaper than a
        per-query hash build.
        """
        cached = self._indexes.get(attrs)
        if cached is not None:
            return cached
        rows = self.rows
        index: dict[tuple, list[Tup]] = {}
        for row in rows:
            index.setdefault(index_key(row, attrs), []).append(row)
        with self._lock:
            # Publish only if no mutation swapped the row list meanwhile;
            # the builder still uses its (snapshot-consistent) index.
            if self.rows is rows:
                self._indexes[attrs] = index
        return index

    # -- mutation ------------------------------------------------------------
    def bump_version(self) -> int:
        """Advance the version and drop derived artifacts (set view, indexes).

        Every mutating method funnels through :meth:`_publish`, which
        advances the same way under the table lock (keeping the indexes it
        patched); external caches compare versions instead
        of registering invalidation callbacks. The derived artifacts are
        dropped *before* the version advances, so a lock-free reader that
        sees the new version can never pick up a stale index.
        """
        return self._advance({}, ())

    def _advance(self, indexes: dict, changes: tuple) -> int:
        """Install the derived *indexes* and the write log, then advance the version."""
        with self._lock:
            self._as_set = None
            self._indexes = indexes
            self._changes = changes
            self.version += 1
            return self.version

    def _publish(self, rows: list[Tup], added: list[Tup] = (), removed: list[Tup] = ()) -> int:
        """Atomically install a fully built row list and advance the version.

        *added*/*removed* name the rows that differ from the current list.
        When both are few, every built hash index is carried over to the new
        version patched for just those rows — a fresh dict whose touched
        buckets are fresh lists, so a reader holding the old index never
        sees it change — instead of being dropped and rebuilt by the next
        query, and the rows are logged for :meth:`changed_rows`: a small
        write then costs its readers little.
        """
        with self._lock:
            indexes, changes = {}, ()
            if 0 < len(added) + len(removed) <= _PATCH_ROWS:
                for attrs, index in self._indexes.items():
                    patched = _patched_index(index, attrs, added, removed)
                    if patched is not None:
                        indexes[attrs] = patched
                written = (self.version + 1, tuple(added) + tuple(removed))
                changes = (self._changes + (written,))[-_CHANGE_LOG:]
            self.rows = rows
            return self._advance(indexes, changes)

    def changed_rows(self, since: int) -> list[Tup] | None:
        """The rows inserted or deleted after version *since*, or None.

        None when a write since then was not a small insert or delete, or
        lies further back than the log reaches: what was built at *since*
        must then be rebuilt rather than patched.
        """
        changes = self._changes
        if not changes or changes[0][0] > since + 1:
            return None
        return [row for version, rows in changes if version > since for row in rows]

    def _check_rows(self, rows: list[Tup], validate: bool) -> None:
        for row in rows:
            if not isinstance(row, Tup):
                raise CatalogError(
                    f"table {self.name!r}: rows must be Tup values, got {type(row).__name__}"
                )
        if validate:
            for i, row in enumerate(rows):
                check(row, self.row_type, path=f"{self.name}[+{i}]")

    def insert(self, rows: Iterable[Tup], validate: bool = False) -> int:
        """Append *rows* and bump the version; returns the new version.

        The combined row list is validated before anything is published, so
        a key violation raises without mutating the table.
        """
        fresh = list(rows)
        self._check_rows(fresh, validate)
        with self._lock:
            combined = self.rows + fresh
            if self.key is not None:
                self._check_key(self.key, combined)
            return self._publish(combined, added=fresh)

    def delete(self, pred: Callable[[Tup], bool]) -> int:
        """Remove rows satisfying *pred*; bumps the version iff any matched."""
        with self._lock:
            rows = self.rows
            if not self._indexes:
                kept = [row for row in rows if not pred(row)]
                if len(kept) == len(rows):
                    return self.version
                return self._publish(kept)
            # With indexes to carry over, find the positions that go: the
            # scans for False run in C, so a few deletions from a large
            # table cost little beyond the predicate calls.
            keep = [not pred(row) for row in rows]
            gone = []
            try:
                while len(gone) <= _PATCH_ROWS:
                    gone.append(keep.index(False, gone[-1] + 1 if gone else 0))
            except ValueError:
                pass
            if not gone:
                return self.version
            if len(gone) > _PATCH_ROWS:
                return self._publish(list(itertools.compress(rows, keep)))
            kept = rows.copy()
            for i in reversed(gone):
                del kept[i]
            return self._publish(kept, removed=[rows[i] for i in gone])

    def replace_rows(self, rows: Iterable[Tup], validate: bool = False) -> int:
        """Swap in a whole new row list and bump the version."""
        fresh = list(rows)
        self._check_rows(fresh, validate)
        if self.key is not None:
            self._check_key(self.key, fresh)
        with self._lock:
            return self._publish(fresh)

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Pickle only the durable identity: name, rows, type, key, version.

        The lock and the derived artifacts (set view, hash indexes) are
        process-local and rebuilt lazily on the other side.
        """
        return {
            "name": self.name,
            "rows": self.rows,
            "row_type": self.row_type,
            "key": self.key,
            "version": self.version,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self.rows = state["rows"]
        self.row_type = state["row_type"]
        self.key = state["key"]
        self.version = state["version"]
        # A fresh uid in the *receiving* process: uids are only unique
        # within the process that issued them, and a copy must never
        # alias another table's BUILD_CACHE entries.
        self.uid = next(_TABLE_UIDS)
        self._as_set = None
        self._indexes = {}
        self._changes = ()
        self._lock = threading.RLock()

    def cardinality(self) -> int:
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tup]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {len(self.rows)} rows, {self.row_type!r})"


class Catalog(Mapping[str, Table]):
    """Extension name → :class:`Table`, with optional schema awareness.

    Implements ``Mapping`` so it can be passed directly as the ``tables``
    argument of the interpreter and of plan execution.
    """

    def __init__(self, schema: Schema | None = None):
        self.schema = schema
        self._tables: dict[str, Table] = {}
        self._structure_version = 0
        #: (structure version, fingerprint) of the last schema_fingerprint().
        self._fingerprint: tuple[int, tuple] | None = None

    # -- versioning ----------------------------------------------------------
    @property
    def version(self) -> int:
        """A monotonically increasing data version.

        Combines the catalog's own structural counter (bumped on add/drop)
        with every member table's version, so *any* mutation anywhere in
        the catalog changes this number. Computed lazily — tables need no
        back-reference to the catalogs holding them.
        """
        # list() snapshots the table set atomically (C-level), so a racing
        # add/drop cannot raise "dict changed size" out of this property.
        return self._structure_version + sum(t.version for t in list(self._tables.values()))

    def schema_fingerprint(self) -> tuple:
        """A hashable digest of the catalog's *shape* (names and row types).

        Two catalogs with the same fingerprint accept the same queries with
        the same types, so a prepared plan keyed by (query, fingerprint) is
        reusable across them; the data *contents* are deliberately not part
        of it (that is what :attr:`version` tracks).

        Memoised per structural version: the plan cache asks on every
        lookup, and only :meth:`add`/:meth:`drop` change the shape. The
        version is read before the tables, so a racing add/drop can only
        leave a memo that the next call already sees as stale.
        """
        version = self._structure_version
        memo = self._fingerprint
        if memo is not None and memo[0] == version:
            return memo[1]
        fingerprint = tuple(
            sorted((name, repr(t.row_type)) for name, t in list(self._tables.items()))
        )
        self._fingerprint = (version, fingerprint)
        return fingerprint

    # -- construction -------------------------------------------------------
    def add(self, table: Table) -> Table:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already in catalog")
        if self.schema is not None and table.name in self.schema.extension_names():
            declared = self.schema.extension_row_type(table.name)
            for i, row in enumerate(table.rows):
                check(row, declared, path=f"{table.name}[{i}]")
            table.row_type = declared
        self._tables[table.name] = table
        self._structure_version += 1
        return table

    def drop(self, name: str) -> Table:
        """Remove and return a table; keeps :attr:`version` monotonic."""
        table = self.table(name)
        del self._tables[name]
        # The summed component loses table.version; compensate so the
        # catalog version can only ever move forward.
        self._structure_version += table.version + 1
        return table

    def add_rows(
        self,
        name: str,
        rows: Iterable[Tup],
        row_type: TupleType | None = None,
        validate: bool = False,
        key: tuple[str, ...] | None = None,
    ) -> Table:
        return self.add(Table(name, rows, row_type, validate, key))

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}; catalog has {sorted(self._tables)}") from None

    # -- Mapping protocol ----------------------------------------------------
    def __getitem__(self, name: str) -> Table:
        return self._tables[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tables)

    def __len__(self) -> int:
        return len(self._tables)

    # -- typing --------------------------------------------------------------
    def row_types(self) -> dict[str, TupleType]:
        """Extension name → row type, the table typing for :class:`TypeEnv`."""
        return {name: t.row_type for name, t in self._tables.items()}

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}({len(t)})" for n, t in self._tables.items())
        return f"Catalog[{inner}]"
