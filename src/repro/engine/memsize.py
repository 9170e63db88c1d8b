"""Deep size estimation for engine objects: the byte axis of cache accounting.

Every cache in the engine — the prepared-plan LRU, the build-side cache's
hash builds / sorted runs / group tables / columnar snapshots, the
serving result cache — is bounded by *entry count*, but the
resource that materialization-heavy nested-query evaluation actually
stresses is *bytes of held intermediates*. :func:`deep_sizeof` estimates
that: a deep, cycle-safe, memo-sharing traversal specialized for the
value model (:class:`~repro.model.values.Tup`,
:class:`~repro.model.values.Variant`, frozensets, interned key tuples)
and the engine containers built from it (``Table`` row lists, ``Batch``
columns, group tables mapping key tuples to frozensets).

**Shared-structure policy.** One call = one accounting unit (one cache
entry). Within a call, every object is counted exactly once, by identity:
a row shared between two groups of a group table, an interned key tuple
reused across a hash build's buckets, or a small interned int contribute
their bytes a single time. Callers may thread one *memo* through several
calls to extend the unit (e.g. "count this artifact's marginal bytes on
top of that one"), but the default — and the policy every cache uses —
is per-entry sharing: each cache entry is charged for the full structure
it keeps alive, and structure shared *between* entries is charged to
each, because evicting one entry does not free it.

**Sampling.** Large containers (more than :data:`SAMPLE_THRESHOLD`
elements) are not traversed exhaustively: the first
:data:`SAMPLE_SIZE` elements are deep-sized and the per-element mean is
extrapolated across the container. Engine artifacts are homogeneous —
a hash build's bucket lists, a table's row list, a columnar snapshot's
column all hold same-shaped values — so the extrapolation error is
small, while the cost of sizing a million-row artifact at insert drops
from a full traversal to a constant. Sampled elements still enter the
memo; unsampled ones may be re-counted if reached again elsewhere —
accepted estimator error, bounded by the calibration tests.

The estimate is exactly that — an estimate. ``sys.getsizeof`` reports
container headers without internal fragmentation or allocator overhead,
and objects reached through skipped references (code objects, classes,
modules, locks) are charged their shallow size only. The
:func:`calibrate` helper measures the estimate against a
``tracemalloc``-observed allocation of the same structure;
:data:`CALIBRATION_FACTOR` documents the band the estimate is tested to
stay within on representative ``Table``/group-table shapes.

Traversal never executes user code beyond ``__slots__`` attribute reads
and is iterative (no recursion limit on deep nesting). The memo maps
``id(obj) → obj`` — keeping the reference pins the object so CPython
cannot recycle its id mid-traversal.
"""

from __future__ import annotations

import sys
from typing import Any

__all__ = [
    "deep_sizeof",
    "calibrate",
    "CALIBRATION_FACTOR",
    "SAMPLE_THRESHOLD",
    "SAMPLE_SIZE",
]

#: Documented accuracy band of :func:`deep_sizeof` against a
#: ``tracemalloc``-measured allocation of the same structure: the
#: estimate stays within this multiplicative factor (in both directions)
#: on representative engine shapes. Tested by
#: ``tests/engine/test_memsize.py``.
CALIBRATION_FACTOR = 3.0

#: Containers larger than this are sampled rather than fully traversed.
SAMPLE_THRESHOLD = 64

#: How many elements a sampled container contributes to the estimate
#: before extrapolation.
SAMPLE_SIZE = 32

_ATOMIC = (int, float, bool, complex, bytes, str, type(None))

#: Types never descended into: their referents are process-shared code,
#: not cache-held data. Charged shallow size only.
_OPAQUE_NAMES = (
    "function",
    "builtin_function_or_method",
    "method",
    "module",
    "type",
    "weakref",
    "generator",
    "_thread.RLock",
    "_thread.lock",
)


def _engine_types():
    """Resolve engine classes lazily (avoids import cycles at module load)."""
    from repro.engine.table import Table
    from repro.model.values import Tup, Variant

    try:
        from repro.engine.batch import Batch
    except ImportError:  # pragma: no cover - batch always importable here
        Batch = None
    return Tup, Variant, Table, Batch


_TYPES: tuple | None = None


def _extrapolate_elements(elements, count: int, memo: dict[int, Any]) -> int:
    """Deep-size the first :data:`SAMPLE_SIZE` *elements*, scaled to *count*.

    Each sampled element is sized against the shared *memo*, so structure
    already charged to this accounting unit contributes zero to the
    per-element mean — extrapolation then scales only the marginal bytes.
    """
    from itertools import islice

    sample = list(islice(elements, SAMPLE_SIZE))
    if not sample:
        return 0
    subtotal = sum(deep_sizeof(e, memo) for e in sample)
    return int(subtotal * count / len(sample))


def deep_sizeof(obj: Any, memo: dict[int, Any] | None = None) -> int:
    """Estimated deep size of *obj* in bytes (see module docstring).

    *memo* is the identity set of already-counted objects; pass one dict
    across several calls to count shared substructure once for the group,
    or leave it None for the default one-entry accounting unit.
    """
    global _TYPES
    if _TYPES is None:
        _TYPES = _engine_types()
    Tup, Variant, Table, Batch = _TYPES
    getsizeof = sys.getsizeof
    if memo is None:
        memo = {}
    total = 0
    stack = [obj]
    push = stack.append
    while stack:
        o = stack.pop()
        i = id(o)
        if i in memo:
            continue
        memo[i] = o
        try:
            total += getsizeof(o)
        except TypeError:  # pragma: no cover - exotic C objects
            continue
        t = type(o)
        if t in _ATOMIC:
            continue
        if t is Tup:
            push(o._fields)
        elif t is dict:
            if len(o) > SAMPLE_THRESHOLD:
                total += _extrapolate_elements(
                    (kv for pair in o.items() for kv in pair), 2 * len(o), memo
                )
            else:
                stack.extend(o.keys())
                stack.extend(o.values())
        elif t in (list, tuple, set, frozenset):
            if len(o) > SAMPLE_THRESHOLD:
                total += _extrapolate_elements(iter(o), len(o), memo)
            else:
                stack.extend(o)
        elif t is Variant:
            push(o.tag)
            push(o.value)
        elif Table is not None and isinstance(o, Table):
            # The durable contents; derived artifacts (set view, hash
            # indexes) are rebuildable and accounted by whoever holds
            # them, and the lock is process plumbing.
            push(o.name)
            push(o.rows)
            if o.key is not None:
                push(o.key)
        elif Batch is not None and isinstance(o, Batch):
            push(o.columns)
            if o.sel is not None:
                push(o.sel)
        elif isinstance(o, dict):
            if len(o) > SAMPLE_THRESHOLD:
                total += _extrapolate_elements(
                    (kv for pair in o.items() for kv in pair), 2 * len(o), memo
                )
            else:
                stack.extend(o.keys())
                stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            if len(o) > SAMPLE_THRESHOLD:
                total += _extrapolate_elements(iter(o), len(o), memo)
            else:
                stack.extend(o)
        elif t.__name__ in _OPAQUE_NAMES or isinstance(o, type):
            continue
        else:
            d = getattr(o, "__dict__", None)
            if d is not None:
                push(d)
            slots = getattr(t, "__slots__", None)
            if slots is not None:
                for name in slots:
                    if isinstance(name, str):
                        try:
                            push(getattr(o, name))
                        except AttributeError:
                            pass
    return total


def calibrate(factory, deep=deep_sizeof) -> dict:
    """Measure :func:`deep_sizeof` against a ``tracemalloc`` ground truth.

    *factory* is a zero-argument callable building a fresh structure;
    it runs under tracemalloc and the net traced allocation is compared
    with ``deep(result)``. Returns ``{"estimated", "actual", "ratio"}``
    (ratio = estimated/actual; 0.0 when the trace saw no allocation).

    Interned atoms skew the comparison in both directions — small ints
    and short strings the factory *reuses* are allocated zero new bytes
    but estimated once; use factories producing distinct values for
    representative numbers. If tracemalloc is already tracing, the
    ambient trace is reused and left running.
    """
    import gc
    import tracemalloc

    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        obj = factory()
        gc.collect()
        actual = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    estimated = deep(obj)
    return {
        "estimated": estimated,
        "actual": actual,
        "ratio": (estimated / actual) if actual > 0 else 0.0,
    }
