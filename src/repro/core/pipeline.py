"""End-to-end query processing: parse → type-check → unnest → execute.

:func:`run_query` is the library's front door. It accepts query text or an
AST, translates nested queries into (semi/anti/nest) join plans where the
classifier allows, executes on the requested engine, and returns TM set
semantics (a frozenset of result values).

Engines:

* ``"interpret"`` — the naive nested-loop oracle (no translation);
* ``"logical"``   — translated plan run on the reference executor;
* ``"physical"``  — translated plan compiled to physical operators with
  cost-based join algorithm selection (the default).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping

from repro.algebra.interpreter import result_set, run_logical
from repro.algebra.pretty import explain_plan
from repro.core.trace import QueryTrace, span, trace_scope
from repro.core.unnest import Translation, translate_query
from repro.engine.cache import CacheStats, LRUCache, default_budget_bytes
from repro.engine.cachereg import register_cache
from repro.engine.table import Catalog
from repro.errors import UnsupportedQueryError
from repro.lang.ast import SFW, Expr, UnnestExpr, param_names
from repro.lang.eval import evaluate
from repro.lang.params import bind_values, param_scope, param_signature
from repro.lang.parser import parse
from repro.lang.typing import TypeEnv, type_of
from repro.model.types import type_of_value

__all__ = [
    "QueryResult",
    "run_query",
    "explain_query",
    "prepare",
    "PreparedQuery",
    "prepared",
    "plan_cache_stats",
    "clear_plan_cache",
    "set_plan_cache_budget",
]


@dataclass
class QueryResult:
    """A query answer plus how it was computed.

    ``analyzed`` (an :class:`repro.engine.analyze.AnalyzedRun`) and
    ``trace`` are populated by ``run_query(..., analyze=True)`` /
    ``run_query(..., trace=...)`` and None otherwise.
    """

    value: frozenset
    engine: str
    translation: Translation | None
    analyzed: object | None = None
    trace: QueryTrace | None = None

    @property
    def fully_flattened(self) -> bool:
        return self.translation is not None and self.translation.fully_flattened


def _as_ast(query: str | Expr) -> Expr:
    return parse(query) if isinstance(query, str) else query


def _typecheck(ast: Expr, catalog: Catalog, params: dict) -> None:
    """Type *ast* against the catalog, each ``$name`` as its bound value."""
    types = {name: type_of_value(value) for name, value in params.items()}
    type_of(ast, TypeEnv.with_tables(catalog.row_types(), types))


def prepare(
    query: str | Expr,
    catalog: Catalog,
    typecheck: bool = True,
    trace: QueryTrace | None = None,
) -> Translation | None:
    """Parse, optionally type-check, and translate a query (no execution).

    With *trace*, the translation's rewrite decisions (Table 2 rows,
    verdicts, join kinds) are recorded as structured events on it.
    """
    with trace_scope(trace) if trace is not None else _null_scope():
        with span("parse"):
            ast = _as_ast(query)
        if typecheck:
            with span("typecheck"):
                _typecheck(ast, catalog, {})
        if not isinstance(ast, (SFW, UnnestExpr)):
            raise UnsupportedQueryError(
                f"top-level query must be a SELECT-FROM-WHERE (or UNNEST of one), got {type(ast).__name__}"
            )
        with span("translate"):
            return translate_query(ast, catalog)


@contextmanager
def _null_scope():
    """Leave whatever ambient trace scope is already installed untouched."""
    yield


def _params_scope(params: Mapping[str, object] | None):
    """Bind *params* for the block, or keep the ambient binding when None."""
    return _null_scope() if params is None else param_scope(bind_values(params))


def run_query(
    query: str | Expr,
    catalog: Catalog,
    engine: str = "physical",
    typecheck: bool = True,
    rewrite: bool = True,
    analyze: bool = False,
    trace: QueryTrace | None = None,
    params: Mapping[str, object] | None = None,
) -> QueryResult:
    """Execute *query* against *catalog* and return its value as a set.

    ``rewrite`` controls the logical rewrite pass (selection pushdown and
    plan cleanup) applied before physical compilation; the ``logical``
    engine always runs the raw translated plan, preserving a rewrite-free
    rung on the differential-testing ladder.

    ``analyze=True`` (physical engine only) instruments execution and
    attaches an :class:`repro.engine.analyze.AnalyzedRun` with
    per-operator rows in/out, wall time, cache hits, and peak group sizes
    to the result.  ``trace`` collects the rewrite-decision trace and
    phase timings; pass a fresh :class:`~repro.core.trace.QueryTrace` (it
    is also returned on the result). ``params`` binds the query's
    ``$name`` parameters, on every engine.
    """
    bound = bind_values(params)
    with trace_scope(trace) if trace is not None else _null_scope(), param_scope(bound):
        return _run_query_traced(
            query, catalog, engine, typecheck, rewrite, analyze, trace, bound
        )


def _run_query_traced(
    query: str | Expr,
    catalog: Catalog,
    engine: str,
    typecheck: bool,
    rewrite: bool,
    analyze: bool,
    trace: QueryTrace | None,
    params: dict,
) -> QueryResult:
    with span("parse"):
        ast = _as_ast(query)
    if typecheck:
        with span("typecheck"):
            _typecheck(ast, catalog, params)
    if engine == "interpret":
        with span("execute", detail="interpreter"):
            value = evaluate(ast, tables=catalog)
        return QueryResult(_as_result_set(value), "interpret", None, trace=trace)
    if not isinstance(ast, (SFW, UnnestExpr)):
        raise UnsupportedQueryError(
            f"top-level query must be a SELECT-FROM-WHERE (or UNNEST of one), got {type(ast).__name__}"
        )
    with span("translate"):
        translation = translate_query(ast, catalog)
    if translation is None:
        # The outermost FROM operand is not a stored table: interpret.
        with span("execute", detail="interpreter fallback"):
            value = evaluate(ast, tables=catalog)
        return QueryResult(_as_result_set(value), "interpret", None, trace=trace)
    if engine == "logical":
        with span("execute", detail="reference executor"):
            rows = run_logical(translation.plan, catalog)
        return QueryResult(result_set(rows), "logical", translation, trace=trace)
    if engine == "physical":
        from repro.algebra.rewrite import optimize_logical
        from repro.engine.executor import execute_set
        from repro.engine.physical import compile_plan

        with span("rewrite"):
            plan = optimize_logical(translation.plan) if rewrite else translation.plan
        with span("compile"):
            physical = compile_plan(plan, catalog)
        if analyze:
            from repro.engine.analyze import analyze as _analyze
            from repro.engine.feedback import record_run

            with span("execute", detail="instrumented"):
                run = _analyze(physical, catalog)
            # Close the cardinality-feedback loop: aggregate this run's
            # per-operator q-errors (keyed by the translator's rewrite
            # verdicts) into the process-global feedback registry.
            record_run(run, rewrite_kinds=_translation_kinds(translation))
            return QueryResult(
                result_set(run.rows), "physical", translation, analyzed=run, trace=trace
            )
        with span("execute", detail="batch"):
            value = execute_set(physical, catalog)
        return QueryResult(value, "physical", translation, trace=trace)
    raise UnsupportedQueryError(f"unknown engine {engine!r}")


def _as_result_set(value) -> frozenset:
    if isinstance(value, frozenset):
        return value
    raise UnsupportedQueryError(f"query evaluated to a non-set value {value!r}")


def _translation_kinds(translation: Translation | None) -> tuple[str, ...]:
    """The distinct join kinds a translation chose (see rewrite_kinds)."""
    if translation is None:
        return ("interpreted",)
    kinds = tuple(dict.fromkeys(translation.join_kinds()))
    return kinds or ("flat",)


class PreparedQuery:
    """A query prepared once and executable many times.

    Preparation parses, type-checks, translates, and logically rewrites;
    physical compilation happens per catalog (statistics differ) but is
    cached and keyed by the catalog's data :attr:`~repro.engine.table.Catalog.version`,
    so repeated execution against an unchanged catalog pays the optimizer
    exactly once — and a mutation anywhere in the catalog transparently
    recompiles with fresh statistics on the next execution.

    Falls back to the interpreter transparently when the query shape has
    no plan (outer FROM operand not a stored table).

    ``$name`` parameters stay opaque in the plan: *params* at preparation
    only types them, and each :meth:`execute` binds its own values, so one
    preparation serves every binding of the same types.
    """

    def __init__(
        self,
        query: str | Expr,
        catalog: Catalog,
        typecheck: bool = True,
        params: Mapping[str, object] | None = None,
    ):
        from repro.algebra.rewrite import optimize_logical

        #: The preparation-time trace: which Table 2 rows matched, the
        #: semijoin/antijoin/nest-join verdicts, and the rewrite passes.
        #: Cached with the PreparedQuery, so the serving layer can report
        #: the rewrite decisions of any query it has ever prepared.
        self.trace = QueryTrace(query=query if isinstance(query, str) else "")
        with trace_scope(self.trace):
            with span("parse"):
                self.ast = _as_ast(query)
            if typecheck:
                with span("typecheck"):
                    _typecheck(self.ast, catalog, bind_values(params))
            if not isinstance(self.ast, (SFW, UnnestExpr)):
                raise UnsupportedQueryError(
                    "top-level query must be a SELECT-FROM-WHERE (or UNNEST of one)"
                )
            with span("translate"):
                self.translation = translate_query(self.ast, catalog)
            with span("rewrite"):
                self.plan = (
                    optimize_logical(self.translation.plan)
                    if self.translation is not None
                    else None
                )
        #: id(catalog) → (catalog version at compile time, physical tree).
        self._compiled: dict[int, tuple[object, object]] = {}
        self._compile_lock = threading.Lock()

    def compile_for(self, catalog: Catalog):
        """The physical operator tree for *catalog* (cached per version).

        Thread-safe: the stale-entry check and the recompilation happen
        under a per-instance lock (double-checked against the fast path),
        so concurrent service workers racing a catalog-version change
        recompile exactly once instead of trampling each other's entries.
        """
        from repro.engine.physical import compile_plan

        if self.plan is None:
            raise UnsupportedQueryError("query has no plan; it is interpreted")
        key = id(catalog)
        entry = self._compiled.get(key)
        if entry is not None and entry[0] == getattr(catalog, "version", None):
            return entry[1]
        with self._compile_lock:
            version = getattr(catalog, "version", None)
            entry = self._compiled.get(key)
            if entry is None or entry[0] != version:
                entry = (version, compile_plan(self.plan, catalog))
                self._compiled[key] = entry
            return entry[1]

    def execute(
        self, catalog: Catalog, params: Mapping[str, object] | None = None
    ) -> frozenset:
        """Run against *catalog* and return the result set.

        *params* binds the ``$name`` parameters for this run; without it
        the run reads the binding already installed on this thread (see
        :func:`repro.lang.params.param_scope`), if any.
        """
        from repro.engine.executor import execute_set

        with _params_scope(params):
            if self.plan is None:
                return _as_result_set(evaluate(self.ast, tables=catalog))
            return execute_set(self.compile_for(catalog), catalog)

    def analyze(self, catalog: Catalog, params: Mapping[str, object] | None = None):
        """Instrumented execution: returns an AnalyzedRun (see engine.analyze).

        Each call also records the run's per-operator q-errors into the
        process-global feedback registry (:data:`repro.engine.feedback.FEEDBACK`).
        """
        from repro.engine.analyze import analyze as _analyze
        from repro.engine.feedback import record_run

        with _params_scope(params):
            run = _analyze(self.compile_for(catalog), catalog)
        record_run(run, rewrite_kinds=self.rewrite_kinds())
        return run

    def rewrite_kinds(self) -> tuple[str, ...]:
        """The distinct join kinds translation chose, in decision order.

        ``("interpreted",)`` when the query has no plan, ``("flat",)``
        when the plan needed no subquery joins at all — the labels the
        serving metrics aggregate per query.
        """
        return _translation_kinds(self.translation)

    def explain(self, catalog: Catalog | None = None) -> str:
        """The logical plan; with *catalog*, also the compiled physical plan
        including the build-side cache hit/miss counters."""
        if self.plan is None:
            return "no plan: outer FROM operand is not a stored table (interpreted)"
        text = explain_plan(self.plan)
        if catalog is not None:
            from repro.engine.explain import explain_physical

            text += "\nphysical plan:\n" + explain_physical(self.compile_for(catalog), 1)
        return text


# ---------------------------------------------------------------------------
# The prepared-plan cache: (normalized query, schema fingerprint, typecheck,
# parameter types) → PreparedQuery, behind a raw-text → normalized-text memo
# ---------------------------------------------------------------------------

def _plan_key_identity(key) -> dict:
    """Top-entry identity for a plan-cache key: the normalized query text."""
    text, fingerprint, typecheck, param_types = key
    return {
        "query": text if len(text) <= 120 else text[:119] + "…",
        "schema_fingerprint": str(fingerprint)[:40],
        "typecheck": typecheck,
        "param_types": [repr(t) for t in param_types],
    }


_PLAN_CACHE = LRUCache(
    capacity=128,
    max_bytes=default_budget_bytes(),
    name="plan",
    describe_key=_plan_key_identity,
)

register_cache("plan", _PLAN_CACHE.report)

#: Serializes the miss path of :func:`prepared` so concurrent first
#: requests for the same query shape produce one PreparedQuery, not many.
_PREPARE_LOCK = threading.Lock()

#: Raw query text → (normalized text, parameter names): a repeated text
#: finds its plan-cache key in one dict lookup, without a parse. It holds
#: strings only, never a PreparedQuery, so it cannot keep a plan alive
#: after the plan cache evicted it. Bounded; the oldest text goes first.
_SHAPES: dict[str, tuple[str, tuple[str, ...]]] = {}
_SHAPES_CAPACITY = 1024
_SHAPES_LOCK = threading.Lock()


def _shape(ast: Expr) -> tuple[str, tuple[str, ...]]:
    from repro.lang.pretty import pretty

    return pretty(ast), param_names(ast)


def _remember_shape(text: str, ast: Expr) -> tuple[str, tuple[str, ...]]:
    shape = _shape(ast)
    with _SHAPES_LOCK:
        if len(_SHAPES) >= _SHAPES_CAPACITY:
            del _SHAPES[next(iter(_SHAPES))]
        _SHAPES[text] = shape
    return shape


def prepared(
    query: str | Expr,
    catalog: Catalog,
    typecheck: bool = True,
    params: Mapping[str, object] | None = None,
) -> PreparedQuery:
    """The serving front door: a cached :class:`PreparedQuery`.

    Normalizes *query* (via the pretty-printer, so formatting differences
    share one entry) and returns the LRU-cached preparation for
    (normalized text, catalog schema fingerprint, typecheck, the types
    *params* binds to the query's ``$name`` parameters). A text seen
    before is not even re-parsed: a memo maps it to its normalized form.
    Queries hitting the cache skip parse/type-check/translate/rewrite
    entirely; physical compilation is further cached inside
    :class:`PreparedQuery` per catalog version. Repeated traffic therefore
    pays translation once per distinct query shape — and a parameterised
    text is one shape for all its bindings — not once per call. Execute
    the result with the same *params*.
    """
    fingerprint = getattr(catalog, "schema_fingerprint", None)
    if fingerprint is None:  # plain mappings have no schema identity to key on
        return PreparedQuery(query, catalog, typecheck=typecheck, params=params)
    ast = None
    if isinstance(query, str):
        shape = _SHAPES.get(query)
        if shape is None:
            ast = parse(query)
            shape = _remember_shape(query, ast)
    else:
        ast = query
        shape = _shape(ast)
    text, names = shape
    types = param_signature(names, bind_values(params)) if typecheck else ()
    key = (text, fingerprint(), typecheck, types)
    entry = _PLAN_CACHE.get(key)
    if entry is None:
        # Double-checked under a lock: concurrent misses for the same key
        # prepare once and share the instance. peek() re-checks without
        # inflating the hit/miss counters a second time.
        with _PREPARE_LOCK:
            entry = _PLAN_CACHE.peek(key)
            if entry is None:
                entry = PreparedQuery(
                    ast if ast is not None else parse(query),
                    catalog,
                    typecheck=typecheck,
                    params=params,
                )
                _PLAN_CACHE.put(key, entry)
    return entry


def plan_cache_stats() -> CacheStats:
    """Hit/miss/eviction counters of the prepared-plan cache."""
    return _PLAN_CACHE.stats


def clear_plan_cache(capacity: int | None = None) -> None:
    """Drop all cached preparations and the text memo (and optionally
    resize the cache)."""
    _PLAN_CACHE.clear()
    with _SHAPES_LOCK:
        _SHAPES.clear()
    if capacity is not None:
        _PLAN_CACHE.resize(capacity)


def set_plan_cache_budget(max_bytes: int | None) -> None:
    """Byte-budget the prepared-plan cache (None = unbounded)."""
    _PLAN_CACHE.set_budget(max_bytes)


def explain_query(query: str | Expr, catalog: Catalog) -> str:
    """A human-readable account: translation steps, plan, rewritten plan."""
    translation = prepare(query, catalog)
    if translation is None:
        return "no plan: outer FROM operand is not a stored table (interpreted)"
    lines = ["translation steps:"]
    for step in translation.steps:
        from repro.lang.pretty import pretty

        what = pretty(step.conjunct) if step.conjunct is not None else "-"
        detail = f" ({step.detail})" if step.detail else ""
        lines.append(f"  [{step.kind}] {what}{detail}")
    lines.append("logical plan:")
    lines.append(explain_plan(translation.plan, 1))
    from repro.algebra.rewrite import optimize_logical

    rewritten = optimize_logical(translation.plan)
    if rewritten != translation.plan:
        lines.append("after rewriting:")
        lines.append(explain_plan(rewritten, 1))
    return "\n".join(lines)
