"""Physical plan compilation: logical plans → executable operator trees.

The compiler walks a logical plan, analyses each join's predicate into
equi-keys plus residual (:mod:`repro.engine.joins.common`), estimates input
cardinalities (:mod:`repro.engine.stats`), and picks the cheapest available
algorithm (:mod:`repro.engine.cost`) — honoring the nest join's build-side
restriction from Section 6 of the paper (hash builds on the right operand).

``force_algorithm`` overrides selection for every join; the E9 benchmark
uses it to compare implementations head to head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.algebra.plan import (
    AntiJoin,
    Distinct,
    Drop,
    Extend,
    Join,
    Map,
    Nest,
    NestJoin,
    OuterJoin,
    Plan,
    Scan,
    Select,
    SemiJoin,
    Unnest,
)
from repro.engine.batch import (
    DEFAULT_BATCH_SIZE,
    Batch,
    batches_from_rows,
    rows_from_batches,
)
from repro.engine.cache import BUILD_CACHE
from repro.engine.cancel import current_token
from repro.engine.cost import cheapest_algorithm
from repro.engine.joins.common import JoinSpec, analyse_join
from repro.engine.joins.nested_loop import (
    nl_anti_join,
    nl_inner_join,
    nl_nest_join,
    nl_outer_join,
    nl_semi_join,
)
from repro.engine.joins.sort_merge import (
    right_runs,
    sm_anti_join,
    sm_inner_join,
    sm_nest_join,
    sm_outer_join,
    sm_semi_join,
)
from repro.engine.stats import StatsCatalog, estimate_rows
from repro.engine.table import index_key
from repro.errors import ExecutionError, PlanError
from repro.lang.ast import (
    Attr,
    Cmp,
    CmpOp,
    Const,
    Expr,
    Param,
    TupleExpr,
    Var,
    attr_path,
    conjuncts,
    make_and,
    param_names,
)
from repro.model.types import TupleType
from repro.model.values import Tup, tup_of

__all__ = ["PhysicalOp", "compile_plan", "JOIN_ALGORITHMS"]

JOIN_ALGORITHMS = ("nested_loop", "hash", "sort_merge", "index_nested_loop")


class PhysicalOp:
    """Base class for physical operators.

    One execution protocol: ``run_batches`` yields columnar
    :class:`~repro.engine.batch.Batch` blocks whose live rows, in order,
    are the operator's output.

    Subclasses are dataclasses carrying at least ``est_rows`` (cardinality
    estimate); joins also carry ``algorithm``.
    """

    est_rows: float

    def run_batches(
        self, tables: Mapping, batch_size: int = DEFAULT_BATCH_SIZE
    ) -> Iterator[Batch]:
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOp", ...]:
        return ()

    def describe(self) -> str:
        return type(self).__name__

    def progress_label(self) -> str:
        """:meth:`describe`, memoized on the instance.

        Progress-instrumented runs stamp the operator label on every
        ``run_batches`` call; compiled trees are reused across
        executions (see ``PreparedQuery.compile_for``), so rendering the
        label once per operator lifetime keeps it off the per-execution
        cost (describe() over a workload's operators is ~2us each —
        real money against sub-millisecond queries).
        """
        label = getattr(self, "_progress_label", None)
        if label is None:
            label = self._progress_label = self.describe()
        return label


@dataclass
class PScan(PhysicalOp):
    table: str
    var: str
    est_rows: float = 0.0
    #: ``(attr, closed expr)`` for a point probe: the scan yields only the
    #: rows whose ``attr`` equals the expression's value, looked up in the
    #: table's persistent :meth:`~repro.engine.table.Table.hash_index`.
    #: Set by the compiler for a selection ``var.attr = e`` directly over
    #: the scan, with ``e`` a constant or a parameter.
    probe: tuple[str, Expr] | None = None

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        # The vectorized scan slices the stored row list straight into
        # single-column batches: no per-row wrapping at all.
        source = tables[self.table]
        if self.probe is not None:
            rows = self._probed_rows(source, tables)
        else:
            rows = source.rows if hasattr(source, "rows") else list(source)
        var = self.var
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        for start in range(0, len(rows), batch_size):
            chunk = rows[start : start + batch_size]
            if token is not None:
                token.check(len(chunk), op_label)
            yield Batch({var: chunk}, len(chunk))

    def _probed_rows(self, source, tables):
        """The rows the probe selects: one hash lookup, the filter's answer.

        Index keys and the filter's ``=`` agree (``1`` finds ``1.0``,
        ``NULL`` finds ``NULL``); a value unequal to itself (NaN) matches
        nothing, as in the filter. Rows lacking *attr* sit under the key
        ``(None,)``, which no model value equals: then — or over a source
        without an index — the probe evaluates its equality row by row,
        raising the filter's :class:`ExecutionError` on such a row.
        """
        from repro.lang.compile import compiled

        attr, expr = self.probe
        value = compiled(expr)({}, tables)
        index = source.hash_index((attr,)) if hasattr(source, "hash_index") else None
        if index is None or (None,) in index:
            return self._filtered_rows(source, tables)
        if value != value:
            return ()
        return index.get((value,), ())

    def _filtered_rows(self, source, tables):
        from repro.lang.compile import compiled

        pred = getattr(self, "_probe_pred", None)
        if pred is None:
            attr, expr = self.probe
            pred = self._probe_pred = Cmp(CmpOp.EQ, Attr(Var(self.var), attr), expr)
        fn = compiled(pred)
        env: dict = {}
        out = []
        for row in source.rows if hasattr(source, "rows") else source:
            env[self.var] = row
            if fn(env, tables):
                out.append(row)
        return out

    def describe(self):
        text = f"Scan {self.table} AS {self.var}"
        if self.probe is None:
            return text
        from repro.lang.pretty import pretty

        attr, expr = self.probe
        return f"{text} ON {attr} = {pretty(expr)}"


@dataclass
class PFilter(PhysicalOp):
    child: PhysicalOp
    pred: Expr
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        from repro.lang.compile import compiled

        fn = compiled(self.pred)
        for batch in self.child.run_batches(tables, batch_size):
            items = list(batch.columns.items())
            env: dict = {}
            sel: list[int] = []
            append = sel.append
            # The filter only narrows the selection vector; columns are
            # shared with the input batch, never copied.
            for i in batch.indices():
                for k, c in items:
                    env[k] = c[i]
                result = fn(env, tables)
                if result is True:
                    append(i)
                elif result is not False:
                    raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
            if sel:
                yield Batch(batch.columns, batch.n, sel)

    def children(self):
        return (self.child,)

    def describe(self):
        from repro.lang.pretty import pretty

        return f"Filter [{pretty(self.pred)}]"


@dataclass
class PMap(PhysicalOp):
    child: PhysicalOp
    expr: Expr
    var: str
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        expr = self.expr
        var = self.var
        fields = _path_fields(expr)
        for batch in self.child.run_batches(tables, batch_size):
            if isinstance(expr, Var) and expr.name in batch.columns:
                # ``Map out = [r]``: the column is the output, selection
                # vector and all — no closure, no copy.
                yield Batch({var: batch.columns[expr.name]}, batch.n, batch.sel)
            elif fields is not None:
                yield Batch({var: _tuples_of_paths(batch, fields, tables)}, batch.live)
            else:
                yield from self._mapped(batch, tables)

    def _mapped(self, batch, tables):
        from repro.lang.compile import compiled

        fn = compiled(self.expr)
        items = list(batch.columns.items())
        env: dict = {}
        out: list = []
        append = out.append
        for i in batch.indices():
            for k, c in items:
                env[k] = c[i]
            append(fn(env, tables))
        if out:
            yield Batch({self.var: out}, len(out))

    def children(self):
        return (self.child,)

    def describe(self):
        from repro.lang.pretty import pretty

        return f"Map {self.var} = [{pretty(self.expr)}]"


def _path_fields(expr: Expr) -> tuple[tuple[str, Expr], ...] | None:
    """The fields of a tuple constructor whose every field is an attribute
    path (``(a = x.a, b = y.b)``, ``(n = d.name, es = ys)``), else None."""
    if not isinstance(expr, TupleExpr) or not expr.fields:
        return None
    for label, value in expr.fields:
        if not (isinstance(label, str) and label) or attr_path(value) is None:
            return None
    return expr.fields


def _tuples_of_paths(batch: Batch, fields, tables) -> list:
    """One tuple per live row of *batch*, its fields read by column getters.

    Rows are built one at a time, fields in order, so the first failing
    read is the one the tuple closure would have raised; :func:`tup_of`
    raises the constructor's error for a non-model value, as it does there.
    """
    pairs = [(label, batch.getter(path, tables)) for label, path in fields]
    return [tup_of({label: g(i) for label, g in pairs}) for i in batch.indices()]


@dataclass
class PExtend(PhysicalOp):
    child: PhysicalOp
    expr: Expr
    label: str
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        from repro.lang.compile import compiled

        fn = compiled(self.expr)
        label = self.label
        for batch in self.child.run_batches(tables, batch_size):
            batch = batch.compact()  # the new column must align with live rows
            items = list(batch.columns.items())
            env: dict = {}
            col: list = []
            append = col.append
            for i in range(batch.n):
                for k, c in items:
                    env[k] = c[i]
                append(fn(env, tables))
            columns = dict(batch.columns)
            columns[label] = col
            yield Batch(columns, batch.n)

    def children(self):
        return (self.child,)

    def describe(self):
        return f"Extend {self.label}"


@dataclass
class PDrop(PhysicalOp):
    child: PhysicalOp
    labels: tuple[str, ...]
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        dropped = set(self.labels)
        for batch in self.child.run_batches(tables, batch_size):
            columns = {k: c for k, c in batch.columns.items() if k not in dropped}
            yield Batch(columns, batch.n, batch.sel)

    def children(self):
        return (self.child,)

    def describe(self):
        return f"Drop {', '.join(self.labels)}"


@dataclass
class PDistinct(PhysicalOp):
    child: PhysicalOp
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        # Dedup on value tuples in a fixed column order — equivalent to
        # Tup equality (same bindings throughout one stream) without
        # materializing a Tup per row.
        seen: set = set()
        add = seen.add
        for batch in self.child.run_batches(tables, batch_size):
            names = sorted(batch.columns)
            sel: list[int] = []
            append = sel.append
            if len(names) == 1:
                col = batch.columns[names[0]]
                for i in batch.indices():
                    key = col[i]
                    if key not in seen:
                        add(key)
                        append(i)
            else:
                cols = [batch.columns[k] for k in names]
                for i in batch.indices():
                    key = tuple(c[i] for c in cols)
                    if key not in seen:
                        add(key)
                        append(i)
            if sel:
                yield Batch(batch.columns, batch.n, sel)

    def children(self):
        return (self.child,)

    def describe(self):
        return "Distinct"


@dataclass
class PJoin(PhysicalOp):
    """All five join modes under all three algorithms."""

    mode: str  # 'inner' | 'semi' | 'anti' | 'outer' | 'nest'
    algorithm: str
    left: PhysicalOp
    right: PhysicalOp
    spec: JoinSpec
    pred: Expr  # full predicate (for nested-loop)
    right_bindings: tuple[str, ...] = ()
    func: Expr | None = None  # nest mode
    label: str = "zs"  # nest mode
    #: (table, var, attrs) when the right operand is a bare scan whose join
    #: keys are direct attributes — enables the index-nested-loop algorithm.
    index_target: tuple[str, str, tuple[str, ...]] | None = None
    #: Inner hash joins may build on the smaller side (Section 6's aside);
    #: set by the compiler from cardinality estimates. Ignored by the
    #: asymmetric modes, which must build on the right.
    hash_build_left: bool = False
    #: (table, var, key fingerprint) when the right operand is a bare scan
    #: whose join keys only reference the scan variable — the build side is
    #: then a pure function of the table contents and reusable across
    #: executions through :data:`repro.engine.cache.BUILD_CACHE`.
    cache_source: tuple[str, str, tuple[str, ...]] | None = None
    #: Set for nest joins whose function only references right-operand
    #: bindings and whose residual is trivial: the whole *group table*
    #: (key → frozenset of function values) is then a pure function of the
    #: right table and reusable across executions — probing degenerates to
    #: a dict lookup per left tuple.
    group_source: tuple[str, str, tuple[str, ...]] | None = None
    cache_hits: int = 0
    cache_misses: int = 0
    #: Deep size of the build-side artifact this join last fetched from
    #: (or published to) the build cache — the byte column EXPLAIN
    #: ANALYZE reports for operators that touched the cache. 0 until a
    #: cacheable access happens (or when accounting is off).
    cache_bytes: int = 0
    est_rows: float = 0.0

    def _reusable(self, kind, tables, thunk, patch=None):
        """Fetch the build-side artifact from the cache, or make and store it.

        Only joins the compiler marked cacheable (``cache_source`` /
        ``group_source``) over a versioned table participate; everything
        else just runs *thunk*. When the cache answers, the right child is
        never executed. On a miss, ``patch(artifact, rows)`` — when given —
        updates the artifact of the table's previous version for the rows
        written since, if the table can still name them.
        """
        fingerprint = self.group_source if kind.endswith("groups") else self.cache_source
        if fingerprint is None:
            return thunk()
        table_name, var, keys_fp = fingerprint
        try:
            source = tables[table_name]
        except (KeyError, TypeError):
            source = None
        key = BUILD_CACHE.key(kind, source, var, keys_fp)
        if key is None:
            return thunk()
        artifact = BUILD_CACHE.get(key)
        if artifact is not None:
            self.cache_hits += 1
            self.cache_bytes = BUILD_CACHE.entry_bytes(key) or 0
            return artifact
        self.cache_misses += 1
        artifact = None
        previous = BUILD_CACHE.previous(key) if patch is not None else None
        if previous is not None:
            written = source.changed_rows(previous[0])
            if written is not None:
                artifact = patch(previous[1], written)
                if source.version != key[2]:
                    artifact = None  # a write landed meanwhile: rebuild from one snapshot
        if artifact is None:
            artifact = thunk()
        # Re-derive the key before publishing: if the table mutated while
        # the build ran, the artifact may mix row snapshots across versions
        # and must not be stored under the version observed at lookup time.
        if BUILD_CACHE.key(kind, source, var, keys_fp) == key:
            BUILD_CACHE.put(key, artifact)
            self.cache_bytes = BUILD_CACHE.entry_bytes(key) or 0
        return artifact

    # -- batch kernels -------------------------------------------------------

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        if self.algorithm == "index_nested_loop":
            if self.mode == "nest" and self.group_source is not None:
                groups = self._reusable(
                    "inl-groups",
                    tables,
                    lambda: self._inl_groups(tables),
                    lambda old, written: self._inl_groups(tables, old, written),
                )
                yield from self._batch_grouped(tables, groups, batch_size)
                return
            table_name, var, attrs = self.index_target
            index = tables[table_name].hash_index(attrs)
            if self._filters_by_key():
                yield from self._batch_key_filter(tables, index, batch_size)
                return
            yield from self._batch_probe(tables, index, batch_size, index_var=var)
            return
        if self.algorithm == "hash":
            if self.mode == "inner" and self.hash_build_left:
                yield from self._batch_hash_build_left(tables, batch_size)
                return
            if self._filters_by_key():
                keys = self._reusable(
                    "hash-keys", tables, lambda: self._key_set(tables, batch_size)
                )
                yield from self._batch_key_filter(tables, keys, batch_size)
                return
            if self.mode == "nest" and self.group_source is not None:
                groups = self._reusable(
                    "hash-groups", tables, lambda: self._hash_groups(tables, batch_size)
                )
                yield from self._batch_grouped(tables, groups, batch_size)
                return
            build = self._reusable(
                "hash-build",
                tables,
                lambda: self._batch_build(tables, batch_size),
            )
            yield from self._batch_probe(tables, build, batch_size)
            return
        # nested_loop and sort_merge: arbitrary predicates and a sort that
        # dominates the cost leave nothing for columns to win, so the
        # kernels of repro.engine.joins work on binding tuples — operands
        # are pulled in batches, handed over as rows, and the output is
        # re-chunked.
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        left = rows_from_batches(self.left.run_batches(tables, batch_size))
        right = rows_from_batches(self.right.run_batches(tables, batch_size))
        if self.algorithm == "nested_loop":
            out = self._run_nl(left, list(right), tables, op_label)
        else:
            runs = self._reusable(
                "sorted-runs", tables, lambda: right_runs(right, self.spec, tables)
            )
            out = self._run_sm(list(left), runs, tables, op_label)
        yield from batches_from_rows(out, batch_size)

    def _batch_keys(self, batch, tables):
        """The left join key of every row of a dense batch, as a list."""
        getters = [batch.getter(k, tables) for k in self.spec.left_keys]
        n = batch.n
        if len(getters) == 1:
            g0 = getters[0]
            return [(g0(i),) for i in range(n)]
        return [tuple(g(i) for g in getters) for i in range(n)]

    def _filters_by_key(self) -> bool:
        """A semi- or antijoin with a trivial residual: whether a left row
        survives depends on its key alone."""
        return self.mode in ("semi", "anti") and self.spec.residual_trivial

    def _key_set(self, tables, batch_size):
        """The right operand's distinct join-key tuples: all a key-filtering
        semi/antijoin needs of its build side — no binding tuple per row."""
        keys: set = set()
        for batch in self.right.run_batches(tables, batch_size):
            getters = [batch.getter(k, tables) for k in self.spec.right_keys]
            if len(getters) == 1:
                g = getters[0]
                keys.update([(g(i),) for i in batch.indices()])
            else:
                keys.update([tuple([g(i) for g in getters]) for i in batch.indices()])
        return frozenset(keys)

    def _batch_key_filter(self, tables, keys, batch_size):
        """Semi/antijoin by key membership in *keys* (a key set or a table
        index): each left batch keeps its columns and gets a narrower
        selection vector."""
        want = self.mode == "semi"
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        for batch in self.left.run_batches(tables, batch_size):
            if token is not None:
                token.check(batch.live, op_label)
            getters = [batch.getter(k, tables) for k in self.spec.left_keys]
            if len(getters) == 1:
                g = getters[0]
                sel = [i for i in batch.indices() if ((g(i),) in keys) == want]
            else:
                sel = [
                    i
                    for i in batch.indices()
                    if (tuple([g(i) for g in getters]) in keys) == want
                ]
            if sel:
                yield Batch(batch.columns, batch.n, sel)

    def _batch_build(self, tables, batch_size):
        """The build side from the right child's batches: right-key tuple →
        matching right binding tuples. Key tuples are interned — the first
        row of each distinct key donates the tuple the dict stores and
        later duplicates are filed under it via a plain ``get`` (no
        throwaway default list per row, one key tuple per distinct key)."""
        spec = self.spec
        table: dict[tuple, list[Tup]] = {}
        get = table.get
        wrap = Tup._from_validated
        for batch in self.right.run_batches(tables, batch_size):
            batch = batch.compact()
            getters = [batch.getter(k, tables) for k in spec.right_keys]
            items = list(batch.columns.items())
            single = getters[0] if len(getters) == 1 else None
            for i in range(batch.n):
                k = (single(i),) if single is not None else tuple(g(i) for g in getters)
                rt = wrap({name: c[i] for name, c in items})
                bucket = get(k)
                if bucket is None:
                    table[k] = [rt]
                else:
                    bucket.append(rt)
        return table

    def _batch_grouped(self, tables, groups, batch_size):
        """Vectorized probe of a precomputed group table: per live row one
        key gather (attribute chains walk columns directly) and one dict
        lookup; the group column is appended to the left batch without
        constructing any tuple."""
        label = self.label
        empty = frozenset()
        get = groups.get
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        for batch in self.left.run_batches(tables, batch_size):
            if token is not None:
                token.check(batch.live, op_label)
            batch = batch.compact()
            col = [get(k, empty) for k in self._batch_keys(batch, tables)]
            columns = dict(batch.columns)
            columns[label] = col
            yield Batch(columns, batch.n)

    @staticmethod
    def _res_ok(res_fn, env, tables) -> bool:
        result = res_fn(env, tables)
        if not isinstance(result, bool):
            raise ExecutionError(f"predicate evaluated to non-boolean {result!r}")
        return result

    def _probe_match(self, env, bucket, res_fn, index_var, tables) -> bool:
        """Whether any bucket member passes the residual; *env* holds the
        probing row's bindings (copied per candidate, as closures may
        recurse into subqueries)."""
        if index_var is not None:
            for row in bucket:
                menv = dict(env)
                menv[index_var] = row
                if self._res_ok(res_fn, menv, tables):
                    return True
            return False
        for rt in bucket:
            menv = dict(env)
            menv.update(rt._fields)
            if self._res_ok(res_fn, menv, tables):
                return True
        return False

    def _batch_probe(self, tables, build, batch_size, index_var=None):
        """Probe a hash build (binding tuples) or a persistent table index
        (raw rows, when *index_var* names their binding) with vectorized
        left batches, in all five join modes."""
        from repro.lang.compile import compiled
        from repro.model.values import NULL

        spec = self.spec
        mode = self.mode
        trivial = spec.residual_trivial
        res_fn = spec._residual_fn
        get = build.get
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        func_fn = compiled(self.func) if mode == "nest" else None
        right_names = (index_var,) if index_var is not None else tuple(self.right_bindings)
        # Nest probe with a trivial residual and a pure right-side
        # function: each bucket's group depends only on the key, so it is
        # computed once per execution, not once per probing left row.
        memo_groups: dict | None = None
        if mode == "nest" and trivial:
            from repro.lang.freevars import free_vars

            if free_vars(self.func) <= set(right_names):
                memo_groups = {}

        for batch in self.left.run_batches(tables, batch_size):
            if token is not None:
                token.check(batch.live, op_label)
            batch = batch.compact()
            keys = self._batch_keys(batch, tables)
            n = batch.n
            litems = list(batch.columns.items())

            if mode in ("semi", "anti"):  # residual not trivial: _batch_key_filter otherwise
                want = mode == "semi"
                sel: list[int] = []
                append = sel.append
                env: dict = {}
                for i in range(n):
                    bucket = get(keys[i])
                    matched = False
                    if bucket:
                        for k, c in litems:
                            env[k] = c[i]
                        matched = self._probe_match(env, bucket, res_fn, index_var, tables)
                    if matched == want:
                        append(i)
                if sel:
                    yield Batch(batch.columns, n, sel)
                continue

            if mode == "nest":
                col: list = []
                append = col.append
                if memo_groups is not None:
                    mget = memo_groups.get
                    scratch: dict = {}
                    for i in range(n):
                        k = keys[i]
                        group = mget(k)
                        if group is None:
                            group = self._bucket_group(
                                get(k), func_fn, index_var, scratch, tables
                            )
                            memo_groups[k] = group
                        append(group)
                else:
                    for i in range(n):
                        bucket = get(keys[i])
                        if not bucket:
                            append(frozenset())
                            continue
                        env = {k: c[i] for k, c in litems}
                        vals = set()
                        if index_var is not None:
                            for row in bucket:
                                menv = dict(env)
                                menv[index_var] = row
                                if trivial or self._res_ok(res_fn, menv, tables):
                                    vals.add(func_fn(menv, tables))
                        else:
                            for rt in bucket:
                                menv = dict(env)
                                menv.update(rt._fields)
                                if trivial or self._res_ok(res_fn, menv, tables):
                                    vals.add(func_fn(menv, tables))
                        append(frozenset(vals))
                columns = dict(batch.columns)
                columns[self.label] = col
                yield Batch(columns, n)
                continue

            # inner / outer: expanded output columns (left ∥ right)
            outer = mode == "outer"
            out = {k: [] for k, _ in litems}
            for name in right_names:
                out[name] = []
            lappends = [(out[k].append, c) for k, c in litems]
            count = 0
            if index_var is not None:
                rappend = out[index_var].append
                for i in range(n):
                    bucket = get(keys[i])
                    emitted = False
                    if bucket:
                        if trivial:
                            for row in bucket:
                                for app, c in lappends:
                                    app(c[i])
                                rappend(row)
                            count += len(bucket)
                            emitted = True
                        else:
                            env0 = {k: c[i] for k, c in litems}
                            for row in bucket:
                                menv = dict(env0)
                                menv[index_var] = row
                                if self._res_ok(res_fn, menv, tables):
                                    for app, c in lappends:
                                        app(c[i])
                                    rappend(row)
                                    count += 1
                                    emitted = True
                    if outer and not emitted:
                        for app, c in lappends:
                            app(c[i])
                        rappend(NULL)
                        count += 1
            else:
                rnames = list(right_names)
                rappends = [out[name].append for name in rnames]
                for i in range(n):
                    bucket = get(keys[i])
                    emitted = False
                    if bucket:
                        if trivial:
                            for rt in bucket:
                                for app, c in lappends:
                                    app(c[i])
                                fields = rt._fields
                                for rapp, name in zip(rappends, rnames):
                                    rapp(fields[name])
                            count += len(bucket)
                            emitted = True
                        else:
                            env0 = {k: c[i] for k, c in litems}
                            for rt in bucket:
                                menv = dict(env0)
                                menv.update(rt._fields)
                                if self._res_ok(res_fn, menv, tables):
                                    for app, c in lappends:
                                        app(c[i])
                                    fields = rt._fields
                                    for rapp, name in zip(rappends, rnames):
                                        rapp(fields[name])
                                    count += 1
                                    emitted = True
                    if outer and not emitted:
                        for app, c in lappends:
                            app(c[i])
                        for rapp in rappends:
                            rapp(NULL)
                        count += 1
            if count:
                yield Batch(out, count)

    def _bucket_group(self, bucket, func_fn, index_var, scratch, tables):
        """One bucket's nest group (trivial residual, right-only function)."""
        if not bucket:
            return frozenset()
        vals = set()
        if index_var is not None:
            for row in bucket:
                scratch[index_var] = row
                vals.add(func_fn(scratch, tables))
        else:
            for rt in bucket:
                vals.add(func_fn(rt.as_env(), tables))
        return frozenset(vals)

    def _batch_hash_build_left(self, tables, batch_size):
        """Inner hash join building on the left operand, vectorized on both
        sides: left rows are stored as value tuples under their join key;
        right batches probe and emit expanded output batches."""
        spec = self.spec
        build: dict[tuple, list[tuple]] = {}
        bget = build.get
        lnames: list[str] | None = None
        for batch in self.left.run_batches(tables, batch_size):
            batch = batch.compact()
            if lnames is None:
                lnames = list(batch.columns)
            getters = [batch.getter(k, tables) for k in spec.left_keys]
            cols = [batch.columns[k] for k in lnames]
            single = getters[0] if len(getters) == 1 else None
            for i in range(batch.n):
                k = (single(i),) if single is not None else tuple(g(i) for g in getters)
                entry = tuple(c[i] for c in cols)
                bucket = bget(k)
                if bucket is None:
                    build[k] = [entry]
                else:
                    bucket.append(entry)
        if not build:
            return
        trivial = spec.residual_trivial
        res_fn = spec._residual_fn
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        for batch in self.right.run_batches(tables, batch_size):
            if token is not None:
                token.check(batch.live, op_label)
            batch = batch.compact()
            getters = [batch.getter(k, tables) for k in spec.right_keys]
            ritems = list(batch.columns.items())
            out: dict[str, list] = {name: [] for name in lnames}
            for name, _ in ritems:
                out[name] = []
            lappends = [out[name].append for name in lnames]
            rappends = [(out[name].append, c) for name, c in ritems]
            single = getters[0] if len(getters) == 1 else None
            count = 0
            for i in range(batch.n):
                k = (single(i),) if single is not None else tuple(g(i) for g in getters)
                bucket = bget(k)
                if not bucket:
                    continue
                if trivial:
                    for entry in bucket:
                        for lapp, v in zip(lappends, entry):
                            lapp(v)
                        for rapp, c in rappends:
                            rapp(c[i])
                    count += len(bucket)
                else:
                    renv = {name: c[i] for name, c in ritems}
                    for entry in bucket:
                        menv = dict(renv)
                        for name, v in zip(lnames, entry):
                            menv[name] = v
                        if self._res_ok(res_fn, menv, tables):
                            for lapp, v in zip(lappends, entry):
                                lapp(v)
                            for rapp, c in rappends:
                                rapp(c[i])
                            count += 1
            if count:
                yield Batch(out, count)

    def _hash_groups(self, tables, batch_size):
        """Right-key tuple → the nest group, built in one pass.

        The group sets accumulate directly — no intermediate build table
        of binding tuples. When the join keys are direct attributes of a
        stored table (``index_target``), the pass runs over the table's
        cached columnar view (:meth:`repro.engine.table.Table.columnar`)
        and never wraps a row in a binding tuple at all.
        """
        from repro.lang.compile import compiled

        fn = compiled(self.func)
        acc: dict[tuple, set] = {}
        get = acc.get
        tgt = self.index_target
        source = tables.get(tgt[0]) if tgt is not None else None
        if tgt is not None and hasattr(source, "columnar"):
            _table_name, var, attrs = tgt
            rows, key_cols = source.columnar(attrs)
            env: dict = {}
            if len(key_cols) == 1:
                kc = key_cols[0]
                for i, row in enumerate(rows):
                    k = (kc[i],)
                    group = get(k)
                    if group is None:
                        group = acc[k] = set()
                    env[var] = row
                    group.add(fn(env, tables))
            else:
                for i, row in enumerate(rows):
                    k = tuple(c[i] for c in key_cols)
                    group = get(k)
                    if group is None:
                        group = acc[k] = set()
                    env[var] = row
                    group.add(fn(env, tables))
        else:
            spec = self.spec
            for rt in rows_from_batches(self.right.run_batches(tables, batch_size)):
                k = spec.eval_right(rt, tables)
                group = get(k)
                if group is None:
                    group = acc[k] = set()
                group.add(fn(rt.as_env(), tables))
        return {k: frozenset(v) for k, v in acc.items()}

    def _inl_groups(self, tables, old=None, written=()):
        """Right-key tuple → the nest group, from the persistent table index.

        Given the group table *old* of an earlier version and the rows
        *written* since, only the groups of the keys those rows carry are
        recomputed: a small write re-groups a few keys, not the table.
        """
        from repro.lang.compile import compiled

        table_name, var, attrs = self.index_target
        index = tables[table_name].hash_index(attrs)
        fn = compiled(self.func)
        env: dict = {}
        if old is None:
            out: dict[tuple, frozenset] = {}
            buckets = index.items()
        else:
            out = dict(old)
            keys = {index_key(row, attrs) for row in written}
            for k in keys - index.keys():
                out.pop(k, None)
            buckets = [(k, index[k]) for k in keys & index.keys()]
        for k, rows in buckets:
            group = set()
            for row in rows:
                env[var] = row
                group.add(fn(env, tables))
            out[k] = frozenset(group)
        return out

    def _run_nl(self, left, right, tables, op_label):
        if self.mode == "inner":
            return nl_inner_join(left, right, self.pred, tables, op_label)
        if self.mode == "semi":
            return nl_semi_join(left, right, self.pred, tables, op_label)
        if self.mode == "anti":
            return nl_anti_join(left, right, self.pred, tables, op_label)
        if self.mode == "outer":
            return nl_outer_join(left, right, self.pred, tables, self.right_bindings, op_label)
        return nl_nest_join(left, right, self.pred, self.func, self.label, tables, op_label)

    def _run_sm(self, left, runs, tables, op_label):
        if self.mode == "inner":
            return sm_inner_join(left, (), self.spec, tables, right_runs=runs, op_label=op_label)
        if self.mode == "semi":
            return sm_semi_join(left, (), self.spec, tables, right_runs=runs, op_label=op_label)
        if self.mode == "anti":
            return sm_anti_join(left, (), self.spec, tables, right_runs=runs, op_label=op_label)
        if self.mode == "outer":
            return sm_outer_join(
                left, (), self.spec, tables, self.right_bindings, right_runs=runs, op_label=op_label
            )
        return sm_nest_join(
            left, (), self.spec, self.func, self.label, tables, right_runs=runs, op_label=op_label
        )

    def children(self):
        return (self.left, self.right)

    def cache_note(self) -> str | None:
        """One-line build-side cache account for EXPLAIN, if applicable."""
        if self.mode == "nest" and self.group_source is not None:
            table_name, _var, keys_fp = self.group_source
            what = "group table"
        elif self.cache_source is not None and self.algorithm in ("hash", "sort_merge"):
            table_name, _var, keys_fp = self.cache_source
            if self.algorithm == "sort_merge":
                what = "sorted runs"
            else:
                what = "key set" if self._filters_by_key() else "hash build"
        else:
            return None
        keys = ", ".join(keys_fp)
        return (
            f"reusable {what} on {table_name}({keys}): "
            f"{self.cache_hits} hits, {self.cache_misses} misses"
        )

    def describe(self):
        from repro.lang.pretty import pretty

        name = {"inner": "Join", "semi": "SemiJoin", "anti": "AntiJoin", "outer": "OuterJoin", "nest": "NestJoin"}[self.mode]
        return f"{name}({self.algorithm}) [{pretty(self.pred)}]"


@dataclass
class PNest(PhysicalOp):
    child: PhysicalOp
    by: tuple[str, ...]
    nest: str
    label: str
    null_to_empty: bool
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        """Vectorized grouping: one pass over the by/nest columns building
        key-tuple → value-set, then a single output batch in first-seen
        key order (grouping is a full pipeline breaker either way)."""
        from repro.model.values import NULL

        by = self.by
        nest = self.nest
        null_to_empty = self.null_to_empty
        groups: dict[tuple, set] = {}
        order: list[tuple] = []
        token = current_token()
        op_label = (
            self.progress_label()
            if token is not None and token.progress is not None
            else None
        )
        for batch in self.child.run_batches(tables, batch_size):
            if token is not None:
                token.check(batch.live, op_label)
            cols = [batch.columns[a] for a in by]
            vals = batch.columns[nest]
            for i in batch.indices():
                key = tuple(c[i] for c in cols)
                group = groups.get(key)
                if group is None:
                    groups[key] = group = set()
                    order.append(key)
                value = vals[i]
                if null_to_empty and value == NULL:
                    continue
                group.add(value)
        if not order:
            return
        out: dict[str, list] = {a: [] for a in by}
        out[self.label] = [frozenset(groups[key]) for key in order]
        for j, a in enumerate(by):
            col = out[a]
            for key in order:
                col.append(key[j])
        yield Batch(out, len(order))

    def children(self):
        return (self.child,)

    def describe(self):
        star = "*" if self.null_to_empty else ""
        return f"Nest{star} {self.label} BY {', '.join(self.by) or '()'}"


@dataclass
class PUnnest(PhysicalOp):
    child: PhysicalOp
    label: str
    var: str
    est_rows: float = 0.0

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        """Vectorized flattening: replicate the carried columns once per
        set member, no per-output-row tuple construction."""
        label = self.label
        var = self.var
        for batch in self.child.run_batches(tables, batch_size):
            members_col = batch.columns[label]
            rest = [(k, c) for k, c in batch.columns.items() if k != label]
            out: dict[str, list] = {k: [] for k, _ in rest}
            out[var] = []
            vappend = out[var].append
            appends = [(out[k].append, c) for k, c in rest]
            count = 0
            for i in batch.indices():
                members = members_col[i]
                if not isinstance(members, frozenset):
                    raise ExecutionError(f"Unnest of non-set binding {label!r}")
                for m in members:
                    for app, c in appends:
                        app(c[i])
                    vappend(m)
                count += len(members)
            if count:
                yield Batch(out, count)

    def children(self):
        return (self.child,)

    def describe(self):
        return f"Unnest {self.var} IN {self.label}"


_MODE_OF = {
    Join: "inner",
    SemiJoin: "semi",
    AntiJoin: "anti",
    OuterJoin: "outer",
    NestJoin: "nest",
}


def compile_plan(
    plan: Plan,
    catalog: Mapping,
    force_algorithm: str | None = None,
) -> PhysicalOp:
    """Compile a logical plan, choosing a join algorithm per join node."""
    if force_algorithm is not None and force_algorithm not in JOIN_ALGORITHMS:
        raise PlanError(f"unknown join algorithm {force_algorithm!r}; pick from {JOIN_ALGORITHMS}")
    stats = StatsCatalog(catalog)
    return _compile(plan, stats, force_algorithm)


def _compile(plan: Plan, stats: StatsCatalog, force: str | None) -> PhysicalOp:
    est = estimate_rows(plan, stats)
    if isinstance(plan, Scan):
        return PScan(plan.table, plan.var, est_rows=est)
    if isinstance(plan, Select):
        probed = _probe_scan(plan, stats)
        if probed is not None:
            scan, rest = probed
            return scan if rest is None else PFilter(scan, rest, est_rows=est)
        return PFilter(_compile(plan.child, stats, force), plan.pred, est_rows=est)
    if isinstance(plan, Map):
        return PMap(_compile(plan.child, stats, force), plan.expr, plan.var, est_rows=est)
    if isinstance(plan, Extend):
        return PExtend(_compile(plan.child, stats, force), plan.expr, plan.label, est_rows=est)
    if isinstance(plan, Drop):
        return PDrop(_compile(plan.child, stats, force), plan.labels, est_rows=est)
    if isinstance(plan, Distinct):
        return PDistinct(_compile(plan.child, stats, force), est_rows=est)
    if isinstance(plan, Nest):
        return PNest(
            _compile(plan.child, stats, force),
            plan.by,
            plan.nest,
            plan.label,
            plan.null_to_empty,
            est_rows=est,
        )
    if isinstance(plan, Unnest):
        return PUnnest(_compile(plan.child, stats, force), plan.label, plan.var, est_rows=est)
    mode = _MODE_OF.get(type(plan))
    if mode is None:
        raise PlanError(f"cannot compile {type(plan).__name__}")
    left = _compile(plan.left, stats, force)
    right = _compile(plan.right, stats, force)
    spec = analyse_join(plan.pred, plan.left.bindings(), plan.right.bindings())
    index_target = _index_target(plan.right, spec)
    if force is not None:
        algorithm = force
        if algorithm == "index_nested_loop" and index_target is None:
            algorithm = "nested_loop"  # cannot honour the override
        elif algorithm != "nested_loop" and not spec.has_equi_keys:
            algorithm = "nested_loop"  # cannot honour the override
        l_est = estimate_rows(plan.left, stats)
        r_est = estimate_rows(plan.right, stats)
    else:
        l_est = estimate_rows(plan.left, stats)
        r_est = estimate_rows(plan.right, stats)
        algorithm = cheapest_algorithm(
            l_est, r_est, est, spec.has_equi_keys, index_target is not None
        ).algorithm
    func = plan.func if isinstance(plan, NestJoin) else None
    if isinstance(plan, NestJoin) and func is None:
        right_names = plan.right.bindings()
        if len(right_names) != 1:
            raise PlanError("identity nest join requires a single right binding")
        func = Var(right_names[0])
    # Resolve the spec's key/residual closures now, at compile time, so no
    # execution pays the per-row memo lookup.
    spec.precompile()
    hash_build_left = mode == "inner" and l_est < r_est
    return PJoin(
        mode=mode,
        algorithm=algorithm,
        left=left,
        right=right,
        spec=spec,
        pred=plan.pred,
        right_bindings=plan.right.bindings(),
        func=func,
        label=plan.label if isinstance(plan, NestJoin) else "zs",
        index_target=index_target,
        # Only the symmetric inner join may flip its build side.
        hash_build_left=hash_build_left,
        cache_source=_cache_source(plan.right, spec, algorithm, hash_build_left),
        group_source=_group_source(plan, spec, mode, func, algorithm),
        est_rows=est,
    )


def _probe_scan(plan: Select, stats: StatsCatalog) -> tuple[PScan, Expr | None] | None:
    """A point-probe scan for ``Select(Scan v, ... ∧ v.attr = e ∧ ...)``.

    ``e`` must be a constant or a parameter (either side of the ``=``) and
    the table's row type must declare ``attr``. Returns the probing scan
    and the remaining conjuncts (None when there are none), or None.
    """
    scan = plan.child
    if not isinstance(scan, Scan):
        return None
    row_type = getattr(stats.catalog.get(scan.table), "row_type", None)
    if not isinstance(row_type, TupleType):
        return None
    items = list(conjuncts(plan.pred))
    for i, conj in enumerate(items):
        if not isinstance(conj, Cmp) or conj.op != CmpOp.EQ:
            continue
        for side, value in ((conj.left, conj.right), (conj.right, conj.left)):
            if (
                isinstance(side, Attr)
                and side.base == Var(scan.var)
                and side.label in row_type.fields
                and isinstance(value, (Const, Param))
            ):
                est = estimate_rows(Select(scan, conj), stats)
                probing = PScan(scan.table, scan.var, est_rows=est, probe=(side.label, value))
                rest = items[:i] + items[i + 1 :]
                return probing, make_and(rest) if rest else None
    return None


def _scan_fingerprint(right: Plan, spec: JoinSpec) -> tuple[str, str, tuple[str, ...]] | None:
    """(table, var, key fingerprint) when the right operand is a bare scan
    of a named table and every right key only references the scan variable
    — the build side is then a pure function of the table contents and the
    key expressions, independent of the rest of the catalog, and can be
    shared across executions keyed by the table's (uid, version).

    A key mentioning a parameter is refused: ``free_vars`` does not see
    one, yet its value — and so the build — changes with every binding."""
    from repro.lang.freevars import free_vars
    from repro.lang.pretty import pretty

    if not isinstance(right, Scan) or not spec.has_equi_keys:
        return None
    var = right.var
    for key in spec.right_keys:
        if free_vars(key) != {var} or param_names(key):
            return None
    return right.table, var, tuple(pretty(k) for k in spec.right_keys)


def _cache_source(
    right: Plan, spec: JoinSpec, algorithm: str, hash_build_left: bool
) -> tuple[str, str, tuple[str, ...]] | None:
    """The reusable raw build side (hash table / sorted runs), if any."""
    if algorithm not in ("hash", "sort_merge"):
        return None
    if algorithm == "hash" and hash_build_left:
        # The build is on the (non-scan) left side; nothing reusable.
        return None
    return _scan_fingerprint(right, spec)


def _group_source(
    plan: Plan, spec: JoinSpec, mode: str, func: Expr | None, algorithm: str
) -> tuple[str, str, tuple[str, ...]] | None:
    """The reusable nest-join *group table*, if any.

    Requires a trivial residual and a function over right-operand bindings
    only: the group of any probing tuple is then determined by its key
    alone, so key → frozenset(func values) is a pure function of the right
    table and each probe is a single dict lookup. A function mentioning a
    parameter is not: its groups change with the binding.
    """
    from repro.lang.freevars import free_vars
    from repro.lang.pretty import pretty

    if mode != "nest" or func is None or algorithm not in ("hash", "index_nested_loop"):
        return None
    if not spec.residual_trivial:
        return None
    if not free_vars(func) <= set(plan.right.bindings()) or param_names(func):
        return None
    fingerprint = _scan_fingerprint(plan.right, spec)
    if fingerprint is None:
        return None
    table, var, keys_fp = fingerprint
    return table, var, keys_fp + (f"func={pretty(func)}",)


def _index_target(right: Plan, spec: JoinSpec) -> tuple[str, str, tuple[str, ...]] | None:
    """(table, var, attrs) if the right operand is a bare scan whose join
    keys are all direct attributes of the scan variable."""
    if not isinstance(right, Scan) or not spec.has_equi_keys:
        return None
    attrs: list[str] = []
    for key in spec.right_keys:
        if not (
            isinstance(key, Attr)
            and isinstance(key.base, Var)
            and key.base.name == right.var
        ):
            return None
        attrs.append(key.label)
    return right.table, right.var, tuple(attrs)
