"""EXPLAIN ANALYZE: instrumented execution with per-operator row counts
and wall time.

:func:`analyze` runs a physical plan while counting the rows each operator
produces and the time spent producing them; :func:`explain_analyze`
renders the annotated tree.  An operator's clock runs only inside each
``next()`` on its own batch iterator and stops while its consumer holds
the batch, so an ancestor's work between two pulls is never booked to a
descendant.  Per operator the run records:

* ``rows`` (rows out) and, derived, ``rows_in`` (sum of children's output);
* ``seconds``, the time inside its own ``next()`` calls — inclusive of its
  children, which it pulls from in there, and of its own row counting;
  the root's also includes turning its batches into the result rows —
  and, derived, ``self_seconds`` (``seconds`` minus the children's), so
  the self times of a tree sum to the root's ``seconds``;
* the start offset of its first pull (for timeline export);
* build-side cache hits/misses observed during *this* run (joins whose
  build artifact came from :data:`repro.engine.cache.BUILD_CACHE`);
* the peak group size materialized by nest joins and Nest operators —
  the quantity that blows up memory when grouping skews.

Estimated vs. actual rows side by side — with the per-operator q-error
computed by :mod:`repro.engine.feedback` — makes cost-model misestimates
visible at a glance.  Instrumentation lives entirely in the proxy layer
built here: plain (non-analyze) execution runs the raw operators and pays
nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.engine.batch import DEFAULT_BATCH_SIZE, Batch
from repro.engine.physical import PhysicalOp, PJoin, PNest
from repro.model.values import Tup

__all__ = ["OpStats", "AnalyzedRun", "analyze", "explain_analyze"]


@dataclass
class OpStats:
    """Counters for one operator in one run."""

    op: PhysicalOp
    rows: int = 0
    #: Time inside this operator's own ``next()`` calls, children included.
    seconds: float = 0.0
    #: Absolute :func:`time.perf_counter` instant of the first pull (0.0 if
    #: the operator never ran — e.g. the right child of a cache-hit join).
    started: float = 0.0
    #: Build-side cache traffic attributable to this run (PJoin only).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Deep size of the cached build-side artifact this operator touched
    #: (hit or published miss); 0 when no cacheable access happened.
    cache_bytes: int = 0
    #: Largest group materialized by a nest join / Nest operator, or None.
    peak_group: int | None = None
    #: Column batches this operator emitted.
    batches: int = 0
    children: list["OpStats"] = field(default_factory=list)

    @property
    def executed(self) -> bool:
        """Whether the operator ran at all in this run."""
        return self.started != 0.0

    @property
    def self_seconds(self) -> float:
        """``seconds`` less the children's: the time this operator alone took."""
        return self.seconds - sum(child.seconds for child in self.children)

    @property
    def rows_in(self) -> int:
        """Rows pulled from the children (0 for leaves and cache-served joins)."""
        return sum(child.rows for child in self.children)


@dataclass
class AnalyzedRun:
    """The result rows plus the operator statistics tree."""

    rows: list[Tup]
    stats: OpStats
    total_seconds: float

    def feedback(self):
        """Per-operator estimate-vs-actual entries (see repro.engine.feedback)."""
        from repro.engine.feedback import feedback_entries

        return feedback_entries(self)

    def top_misestimates(self, k: int = 3):
        """The k worst-estimated operators, most-misestimated first."""
        from repro.engine.feedback import top_misestimates

        return top_misestimates(self, k)


def _build_stats(op: PhysicalOp) -> OpStats:
    return OpStats(op, children=[_build_stats(c) for c in op.children()])


def _group_label(op: PhysicalOp) -> str | None:
    """The nested-attribute label whose group sizes this operator determines."""
    if isinstance(op, PJoin) and op.mode == "nest":
        return op.label
    if isinstance(op, PNest):
        return op.label
    return None


def _instrument(
    op: PhysicalOp, tables: Mapping, stats: OpStats, batch_size: int
) -> Iterator[Batch]:
    start = time.perf_counter()
    stats.started = start
    group_label = _group_label(op)
    # Physical operators pull from their children via attribute access;
    # wrap each child in a counting proxy bound to its stats node.
    original_children = op.children()
    proxies = [
        _Proxy(c, tables, cs) for c, cs in zip(original_children, stats.children)
    ]
    swapped = _swap_children(op, proxies)
    # The clone is what runs, so cache traffic lands on *its* counters.
    cache_before = (
        (swapped.cache_hits, swapped.cache_misses)
        if isinstance(swapped, PJoin)
        else None
    )
    # The clock runs from here to each batch and from each resumption to
    # the next batch; it is stopped while the consumer holds a batch.
    running = True
    try:
        peak = 0
        for batch in swapped.run_batches(tables, batch_size):
            stats.batches += 1
            stats.rows += batch.live
            if group_label is not None:
                col = batch.columns.get(group_label)
                if col is not None:
                    for i in batch.indices():
                        try:
                            size = len(col[i])
                        except TypeError:
                            size = 0
                        if size > peak:
                            peak = size
            stats.seconds += time.perf_counter() - start
            running = False
            yield batch
            start = time.perf_counter()
            running = True
        if group_label is not None:
            stats.peak_group = peak
    finally:
        if running:
            stats.seconds += time.perf_counter() - start
        if cache_before is not None:
            stats.cache_hits = swapped.cache_hits - cache_before[0]
            stats.cache_misses = swapped.cache_misses - cache_before[1]
            if stats.cache_hits or stats.cache_misses:
                stats.cache_bytes = swapped.cache_bytes


class _Proxy(PhysicalOp):
    """Stands in for a child operator, counting and instrumenting it."""

    def __init__(self, inner: PhysicalOp, tables: Mapping, stats: OpStats):
        self.inner = inner
        self.tables = tables
        self.stats = stats
        self.est_rows = inner.est_rows

    def run_batches(self, tables: Mapping, batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[Batch]:
        return _instrument(self.inner, tables, self.stats, batch_size)

    def children(self) -> tuple[PhysicalOp, ...]:
        return self.inner.children()

    def describe(self) -> str:
        return self.inner.describe()


def _swap_children(op: PhysicalOp, proxies: list[PhysicalOp]) -> PhysicalOp:
    """A shallow copy of *op* whose child attributes point at the proxies."""
    import copy

    clone = copy.copy(op)
    originals = op.children()
    for attr in ("child", "left", "right"):
        if hasattr(clone, attr):
            current = getattr(clone, attr)
            for original, proxy in zip(originals, proxies):
                if current is original:
                    object.__setattr__(clone, attr, proxy)
    return clone


def analyze(
    op: PhysicalOp,
    tables: Mapping,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> AnalyzedRun:
    """Execute *op* with instrumentation; returns rows plus statistics."""
    stats = _build_stats(op)
    clock = time.perf_counter
    start = clock()
    rows = []
    for batch in _instrument(op, tables, stats, batch_size):
        # Turning the root's batches into result rows is the root's work.
        gathering = clock()
        rows.extend(batch.to_tups())
        stats.seconds += clock() - gathering
    total = clock() - start
    return AnalyzedRun(rows, stats, total)


def explain_analyze(run: AnalyzedRun) -> str:
    """Render the annotated operator tree of an analyzed run.

    Each operator line carries the cardinality-feedback triple
    ``est=… act=… q=…`` (plus rows in): the compile-time estimate, the
    measured rows out, and the q-error between them (see
    :func:`repro.engine.feedback.q_error`), so misestimates read directly
    off the tree. An operator that never ran — the right child of a join
    whose build side came from the cache — reads ``not executed`` instead.
    """
    from repro.engine.feedback import q_error

    lines: list[str] = [
        f"total: {run.total_seconds * 1e3:.2f} ms, {len(run.rows)} result rows"
    ]

    def emit(stats: OpStats, indent: int) -> None:
        pad = "  " * indent
        op = stats.op
        if not stats.executed:
            # Nothing pulled from it (a join's build side served by the
            # cache): there is no actual to score the estimate against.
            lines.append(f"{pad}{op.describe()}  (est={op.est_rows:.0f}, not executed)")
            for child in stats.children:
                emit(child, indent + 1)
            return
        parts = [
            f"est={op.est_rows:.0f}",
            f"in={stats.rows_in}",
            f"act={stats.rows}",
            f"q={q_error(op.est_rows, stats.rows):.2f}",
            f"{stats.seconds * 1e3:.2f} ms",
            f"self {stats.self_seconds * 1e3:.2f} ms",
        ]
        if stats.batches:
            parts.append(f"{stats.batches} batches")
        if stats.cache_hits or stats.cache_misses:
            parts.append(f"cache {stats.cache_hits} hit/{stats.cache_misses} miss")
            if stats.cache_bytes:
                parts.append(f"cache_bytes={stats.cache_bytes}")
        if stats.peak_group is not None:
            parts.append(f"peak group {stats.peak_group}")
        lines.append(f"{pad}{op.describe()}  ({', '.join(parts)})")
        for child in stats.children:
            emit(child, indent + 1)

    emit(run.stats, 0)
    return "\n".join(lines)
