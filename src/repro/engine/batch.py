"""Columnar batches: the unit of exchange between physical operators.

Moving one :class:`~repro.model.values.Tup` at a time through a chain of
Python generators costs a generator resumption per operator boundary and
a fresh tuple per row in most operators. Operators instead exchange a
:class:`Batch` — parallel Python lists, one per binding name, plus an
optional *selection vector* — so the per-row price collapses to a list
append or an index lookup, and filters never copy data at all (they
narrow the selection vector over the same columns).

The protocol is :meth:`repro.engine.physical.PhysicalOp.run_batches`:
``run_batches(tables, batch_size)`` yields non-empty batches whose live
rows, concatenated in order, are the operator's output. The join kernels
that work on binding tuples (nested-loop, sort-merge) are fed through
:func:`rows_from_batches` and re-chunked with :func:`batches_from_rows`.

Expression evaluation over columns goes through :meth:`Batch.getter`:
attribute chains rooted at a binding (``e``, ``e.address.city``) compile
to direct column/field walks with no per-row environment dict (a failed
read goes through :func:`repro.model.values.attr_of`, so errors read as
in every other evaluator); anything else falls back to the
closure compiler (:mod:`repro.lang.compile`) over a scratch environment
that is refilled in place per row — safe because compiled closures
evaluate eagerly and never retain the environment they are handed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.lang.ast import Expr, attr_path
from repro.model.values import Tup, attr_of, walk_path

__all__ = [
    "Batch",
    "DEFAULT_BATCH_SIZE",
    "batches_from_rows",
    "rows_from_batches",
]

#: Rows per batch.
DEFAULT_BATCH_SIZE = 1024


class Batch:
    """A block of rows in columnar layout.

    ``columns`` maps binding name → list of values; every list has length
    ``n``. ``sel`` is the selection vector: the (ascending) row indices
    that are live, or None when all ``n`` rows are. Filters narrow ``sel``
    without touching the columns; operators that need aligned output
    columns call :meth:`compact` first.
    """

    __slots__ = ("columns", "n", "sel")

    def __init__(
        self,
        columns: dict[str, list],
        n: int,
        sel: list[int] | None = None,
    ):
        self.columns = columns
        self.n = n
        self.sel = sel

    @property
    def live(self) -> int:
        """The number of selected rows."""
        return self.n if self.sel is None else len(self.sel)

    def indices(self) -> Iterable[int]:
        """The live row indices, in order."""
        return range(self.n) if self.sel is None else self.sel

    def compact(self) -> "Batch":
        """A dense batch holding only the live rows (self when already dense)."""
        sel = self.sel
        if sel is None:
            return self
        columns = {k: [c[i] for i in sel] for k, c in self.columns.items()}
        return Batch(columns, len(sel))

    def to_tups(self) -> list[Tup]:
        """The live rows as binding tuples."""
        wrap = Tup._from_validated
        items = list(self.columns.items())
        return [wrap({k: c[i] for k, c in items}) for i in self.indices()]

    def getter(self, expr: Expr, tables: Mapping) -> Callable[[int], Any]:
        """A row-index → value evaluator for *expr* over this batch.

        Attribute chains rooted at one of the batch's bindings bypass
        environment dicts entirely; every other expression is evaluated
        by its compiled closure over a per-row scratch environment.
        """
        path = attr_path(expr)
        if path is not None:
            col = self.columns.get(path[0])
            if col is not None:
                labels = path[1]
                if not labels:
                    return col.__getitem__
                if len(labels) == 1:
                    # One call per row instead of two: join and group keys
                    # are mostly one label. Against walk_path alone this
                    # takes warm_prepared's query_ms_geomean 3.93 -> 3.64 ms
                    # (10/10 alternating pairs, 2-core Xeon, CPython 3.11;
                    # BENCH_23.json "specialisations").
                    (label,) = labels

                    def field(i: int, col=col, label=label):
                        v = col[i]
                        try:
                            return v._fields[label]
                        except (AttributeError, KeyError, TypeError):
                            return attr_of(v, label)

                    return field
                return lambda i, col=col, labels=labels: walk_path(col[i], labels)
        from repro.lang.compile import compiled

        fn = compiled(expr)
        items = list(self.columns.items())
        env: dict = {}

        def generic(i: int, fn=fn, items=items, env=env, tables=tables):
            for k, c in items:
                env[k] = c[i]
            return fn(env, tables)

        return generic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(self.columns)
        return f"Batch({names}; n={self.n}, live={self.live})"


def batches_from_rows(
    rows: Iterable[Tup], batch_size: int = DEFAULT_BATCH_SIZE
) -> Iterator[Batch]:
    """Chunk a row stream into dense batches."""
    names: list[str] | None = None
    columns: dict[str, list] = {}
    count = 0
    for t in rows:
        fields = t._fields
        if names is None:
            names = list(fields)
            columns = {k: [] for k in names}
        for k in names:
            columns[k].append(fields[k])
        count += 1
        if count >= batch_size:
            yield Batch(columns, count)
            columns = {k: [] for k in names}
            count = 0
    if count:
        yield Batch(columns, count)


def rows_from_batches(batches: Iterable[Batch]) -> Iterator[Tup]:
    """Re-materialize a batch stream as binding tuples, in order."""
    wrap = Tup._from_validated
    for batch in batches:
        items = list(batch.columns.items())
        for i in batch.indices():
            yield wrap({k: c[i] for k, c in items})
