"""The experiment suite: every table and worked example of the paper.

Each function regenerates one artifact (see DESIGN.md §4 for the index)
and returns a :class:`~repro.bench.harness.ResultTable`. The pytest
benchmarks in ``benchmarks/`` wrap these for timing-regression tracking;
``python -m repro.bench`` prints the full report that EXPERIMENTS.md
records.

Absolute numbers are machine-dependent; what reproduces the paper is the
*shape*: which strategy wins, by roughly what factor, and where behaviour
flips (e.g. Kim's plans losing exactly the dangling tuples).
"""

from __future__ import annotations

import random

from repro.algebra.interpreter import result_set, run_logical
from repro.algebra.plan import NestJoin, Scan, Select
from repro.algebra.properties import nestjoin_via_outerjoin
from repro.baselines import (
    ganski_wong_plan,
    kim_ja_group_first_plan,
    kim_ja_join_first_plan,
    kim_style_subseteq_plan,
    mural_plan,
)
from repro.bench.harness import ResultTable, fmt_seconds, speedup, time_best
from repro.core.classify import classify
from repro.core.normalize import normalize_predicate
from repro.core.pipeline import prepare, run_query
from repro.engine.cache import clear_build_cache
from repro.engine.executor import run_physical
from repro.engine.table import Catalog
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.model.values import Tup, value_repr
from repro.workloads import (
    COUNT_BUG_NESTED,
    Q1_SAME_STREET,
    Q2_EMPS_BY_CITY,
    SECTION8_FLAT_VARIANT,
    SECTION8_QUERY,
    SUBSETEQ_BUG_NESTED,
    make_chain_workload,
    make_company,
    make_join_workload,
    make_set_workload,
)

__all__ = [
    "e13_rewrite_ablation",
    "e14_index_join",
    "e15_plan_enumeration",
    "e16_prepared_serving",
    "e1_table1",
    "e2_table2",
    "e3_count_bug",
    "e4_subseteq_bug",
    "e5_q1_q2",
    "e6_unnest_collapse",
    "e7_section8",
    "e8_nested_vs_flat",
    "e9_nestjoin_impls",
    "e10_outerjoin_detour",
    "e11_semijoin_vs_nestjoin",
    "e12_scaling",
    "EXPERIMENTS",
]


# ---------------------------------------------------------------------------
# E1 — Table 1: the nest equijoin of X and Y on the second attribute
# ---------------------------------------------------------------------------

def table1_catalog() -> Catalog:
    """The exact relations of Table 1 (p. 346)."""
    cat = Catalog()
    cat.add_rows("X", [Tup(a=1, b=1), Tup(a=1, b=2), Tup(a=2, b=3)])
    cat.add_rows("Y", [Tup(c=1, d=1), Tup(c=2, d=1), Tup(c=3, d=3)])
    return cat


def e1_table1() -> ResultTable:
    cat = table1_catalog()
    plan = NestJoin(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"), None, "s")
    results = {}
    for algo in ("nested_loop", "hash", "sort_merge"):
        rows = run_physical(plan, cat, force_algorithm=algo)
        results[algo] = frozenset(rows)
    table = ResultTable(
        "E1 / Table 1 — nest equijoin of X and Y on the second attribute",
        ("x.a", "x.b", "s = { matching y }"),
    )
    for row in sorted(results["hash"], key=lambda t: (t["x"]["a"], t["x"]["b"])):
        table.add(row["x"]["a"], row["x"]["b"], value_repr(row["s"]))
    agree = results["nested_loop"] == results["hash"] == results["sort_merge"]
    table.note(f"all three implementations agree: {agree}")
    dangling = [r for r in results["hash"] if r["s"] == frozenset()]
    table.note(f"dangling tuple preserved with s = ∅: {len(dangling) == 1}")
    return table


# ---------------------------------------------------------------------------
# E2 — Table 2: rewriting TM predicates
# ---------------------------------------------------------------------------

TABLE2_FORMS = [
    "{z} = {{}}",
    "COUNT({z}) = 0",
    "COUNT({z}) > 0",
    "x.c = COUNT({z})",
    "x.c IN {z}",
    "x.c NOT IN {z}",
    "x.a SUBSETEQ {z}",
    "x.a SUBSET {z}",
    "x.a SUPSETEQ {z}",
    "x.a SUPSET {z}",
    "x.a = {z}",
    "x.a <> {z}",
    "(x.a INTERSECT {z}) = {{}}",
    "(x.a INTERSECT {z}) <> {{}}",
    "FORALL w IN x.a (w IN {z})",
    "FORALL w IN x.a (w NOT IN {z})",
]

_Z = "(SELECT y.a FROM Y y WHERE x.b = y.b)"


def e2_table2() -> ResultTable:
    table = ResultTable(
        "E2 / Table 2 — rewriting TM predicates",
        ("P(x, z)", "class", "rewrite / operator"),
    )
    sub = parse(_Z)
    grouping = 0
    for template in TABLE2_FORMS:
        display = template.format(z="z")
        pred = normalize_predicate(parse(template.format(z=_Z)))
        cls = classify(pred, sub)
        if cls.kind.value == "exists":
            rewrite = f"∃{cls.var}∈z ({pretty(cls.member_pred)})  → semijoin"
        elif cls.kind.value == "not_exists":
            rewrite = f"¬∃{cls.var}∈z ({pretty(cls.member_pred)})  → antijoin"
        else:
            rewrite = "— grouping → nest join"
            grouping += 1
        table.add(display, cls.kind.value, rewrite)
    table.note(f"{grouping}/{len(TABLE2_FORMS)} forms need grouping (nest join)")
    return table


# ---------------------------------------------------------------------------
# E3 — the COUNT bug (Section 2)
# ---------------------------------------------------------------------------

def e3_count_bug(n_left: int = 300, match_rate: float = 0.5, fanout: int = 2) -> ResultTable:
    wl = make_join_workload(n_left=n_left, match_rate=match_rate, fanout=fanout, seed=42)
    cat = wl.catalog
    oracle = run_query(COUNT_BUG_NESTED, cat, engine="interpret").value

    strategies = [
        ("naive nested-loop", lambda: run_query(COUNT_BUG_NESTED, cat, engine="interpret").value),
        ("Kim (1) group-first", lambda: result_set(run_logical(kim_ja_group_first_plan(), cat))),
        ("Kim (2) join-first", lambda: result_set(run_logical(kim_ja_join_first_plan(), cat))),
        ("Ganski–Wong outerjoin", lambda: result_set(run_physical(ganski_wong_plan(), cat))),
        ("Muralikrishna antijoin", lambda: result_set(run_physical(mural_plan(), cat))),
        ("nest join (this paper)", lambda: run_query(COUNT_BUG_NESTED, cat, engine="physical").value),
    ]
    table = ResultTable(
        f"E3 — the COUNT bug (|R|={n_left}, match={match_rate}, fanout={fanout})",
        ("strategy", "rows", "missing", "correct", "time"),
    )
    for name, fn in strategies:
        value = fn()
        seconds = time_best(fn, repeat=1 if "naive" in name else 3)
        table.add(name, len(value), len(oracle - value), value == oracle, fmt_seconds(seconds))
    table.note(f"oracle rows: {len(oracle)}; dangling R-tuples in workload: {wl.dangling}")
    return table


# ---------------------------------------------------------------------------
# E4 — the SUBSETEQ bug (Section 4)
# ---------------------------------------------------------------------------

def e4_subseteq_bug(n_left: int = 300, n_right: int = 200) -> ResultTable:
    cat = make_set_workload(n_left=n_left, n_right=n_right, match_rate=0.5, seed=7)
    oracle = run_query(SUBSETEQ_BUG_NESTED, cat, engine="interpret").value
    strategies = [
        ("naive nested-loop", lambda: run_query(SUBSETEQ_BUG_NESTED, cat, engine="interpret").value),
        ("Kim-style group+join", lambda: result_set(run_logical(kim_style_subseteq_plan(), cat))),
        ("nest join (this paper)", lambda: run_query(SUBSETEQ_BUG_NESTED, cat, engine="physical").value),
    ]
    table = ResultTable(
        f"E4 — the SUBSETEQ bug (|X|={n_left}, |Y|={n_right})",
        ("strategy", "rows", "missing", "correct", "time"),
    )
    for name, fn in strategies:
        value = fn()
        seconds = time_best(fn, repeat=1 if "naive" in name else 3)
        table.add(name, len(value), len(oracle - value), value == oracle, fmt_seconds(seconds))
    empties = sum(1 for t in oracle if t["a"] == frozenset())
    table.note(f"oracle rows: {len(oracle)} of which a=∅ winners: {empties}")
    return table


# ---------------------------------------------------------------------------
# E5 — queries Q1 and Q2 (Section 3.2)
# ---------------------------------------------------------------------------

def e5_q1_q2(n_departments: int = 20, n_employees: int = 300) -> ResultTable:
    cat = make_company(n_departments=n_departments, n_employees=n_employees, seed=13)
    table = ResultTable(
        f"E5 — paper queries Q1/Q2 ({n_departments} departments, {n_employees} employees)",
        ("query", "strategy", "rows", "correct", "time"),
    )
    q1_oracle = run_query(Q1_SAME_STREET, cat, engine="interpret").value
    t_q1 = time_best(lambda: run_query(Q1_SAME_STREET, cat, engine="interpret").value, 3)
    table.add("Q1 (same street)", "stays nested (set-valued attr)", len(q1_oracle), True, fmt_seconds(t_q1))

    q2_oracle = run_query(Q2_EMPS_BY_CITY, cat, engine="interpret").value
    t_naive = time_best(lambda: run_query(Q2_EMPS_BY_CITY, cat, engine="interpret").value, 1)
    q2_plan = run_query(Q2_EMPS_BY_CITY, cat, engine="physical").value
    t_plan = time_best(lambda: run_query(Q2_EMPS_BY_CITY, cat, engine="physical").value, 3)
    table.add("Q2 (emps by city)", "naive nested-loop", len(q2_oracle), True, fmt_seconds(t_naive))
    table.add("Q2 (emps by city)", "nest join", len(q2_plan), q2_plan == q2_oracle, fmt_seconds(t_plan))
    table.note(f"Q2 nest join speedup over naive: {speedup(t_naive, t_plan):.1f}x")
    tr = prepare(Q2_EMPS_BY_CITY, cat)
    table.note(f"Q2 translation steps: {[s.kind for s in tr.steps]}")
    return table


# ---------------------------------------------------------------------------
# E6 — the UNNEST collapse (Section 5)
# ---------------------------------------------------------------------------

def _unnest_catalog(n: int, seed: int = 5) -> Catalog:
    rng = random.Random(seed)
    cat = Catalog()
    cat.add_rows("X", [Tup(a=i, b=rng.randrange(n // 2 or 1)) for i in range(n)])
    cat.add_rows("Y", [Tup(a=rng.randrange(n // 2 or 1), b=i) for i in range(n)])
    return cat


UNNEST_QUERY = (
    "UNNEST(SELECT (SELECT (a = x.a, b = y.b) FROM Y y WHERE x.b = y.a) FROM X x)"
)


def e6_unnest_collapse(n: int = 400) -> ResultTable:
    cat = _unnest_catalog(n)
    oracle = run_query(UNNEST_QUERY, cat, engine="interpret").value
    flat = run_query(UNNEST_QUERY, cat, engine="physical").value
    t_naive = time_best(lambda: run_query(UNNEST_QUERY, cat, engine="interpret").value, 1)
    t_flat = time_best(lambda: run_query(UNNEST_QUERY, cat, engine="physical").value, 3)
    table = ResultTable(
        f"E6 — UNNEST(SELECT (SELECT ...)) collapse (|X|=|Y|={n})",
        ("strategy", "rows", "correct", "time"),
    )
    table.add("nested + UNNEST (naive)", len(oracle), True, fmt_seconds(t_naive))
    table.add("flat join (Section 5)", len(flat), flat == oracle, fmt_seconds(t_flat))
    table.note(f"speedup: {speedup(t_naive, t_flat):.1f}x")
    return table


# ---------------------------------------------------------------------------
# E7 — the Section 8 pipeline
# ---------------------------------------------------------------------------

def e7_section8(n: int = 120) -> ResultTable:
    cat = make_chain_workload(n_x=n, n_y=n, n_z=n, set_size=1, seed=17)
    table = ResultTable(
        f"E7 — Section 8 three-block pipeline (|X|=|Y|=|Z|={n})",
        ("query", "strategy", "rows", "correct", "time"),
    )
    for label, query in (("P1/P2 = ⊆ (grouping)", SECTION8_QUERY), ("P1/P2 = ∈/∉ (flat)", SECTION8_FLAT_VARIANT)):
        oracle = run_query(query, cat, engine="interpret").value
        t_naive = time_best(lambda q=query: run_query(q, cat, engine="interpret").value, 1)
        planned = run_query(query, cat, engine="physical").value
        t_plan = time_best(lambda q=query: run_query(q, cat, engine="physical").value, 3)
        tr = prepare(query, cat)
        table.add(label, "naive nested-loop", len(oracle), True, fmt_seconds(t_naive))
        table.add(label, "+".join(tr.join_kinds()), len(planned), planned == oracle, fmt_seconds(t_plan))
    return table


# ---------------------------------------------------------------------------
# E8 — nested-loop vs flat join plans (the headline claim)
# ---------------------------------------------------------------------------

IN_QUERY = "SELECT r FROM R r WHERE r.b IN (SELECT s.d FROM S s WHERE r.c = s.c)"


def e8_nested_vs_flat(sizes: tuple[int, ...] = (50, 100, 200, 400)) -> ResultTable:
    table = ResultTable(
        "E8 — naive nested-loop vs flattened semijoin (IN-subquery)",
        ("|R|=|S|", "naive", "semijoin plan", "speedup", "correct"),
    )
    for n in sizes:
        wl = make_join_workload(n_left=n, n_right=n, match_rate=0.5, fanout=1, seed=n)
        cat = wl.catalog
        oracle = run_query(IN_QUERY, cat, engine="interpret").value
        planned = run_query(IN_QUERY, cat, engine="physical").value
        t_naive = time_best(lambda: run_query(IN_QUERY, cat, engine="interpret").value, 1)
        t_plan = time_best(lambda: run_query(IN_QUERY, cat, engine="physical").value, 3)
        table.add(n, fmt_seconds(t_naive), fmt_seconds(t_plan), f"{speedup(t_naive, t_plan):.1f}x", planned == oracle)
    table.note("speedup should grow roughly linearly with the inner cardinality")
    return table


# ---------------------------------------------------------------------------
# E9 — nest join implementations head to head
# ---------------------------------------------------------------------------

def e9_nestjoin_impls(sizes: tuple[int, ...] = (100, 300, 600)) -> ResultTable:
    table = ResultTable(
        "E9 — nest join: nested-loop vs hash vs sort-merge",
        ("|R|", "|S|", "nested_loop", "hash", "sort_merge", "agree"),
    )
    for n in sizes:
        wl = make_join_workload(n_left=n, match_rate=0.6, fanout=3, seed=n)
        cat = wl.catalog
        tr = prepare(COUNT_BUG_NESTED, cat)
        times = {}
        outcomes = {}
        for algo in ("nested_loop", "hash", "sort_merge"):
            fn = lambda a=algo: run_physical(tr.plan, cat, force_algorithm=a)
            outcomes[algo] = frozenset(fn())
            times[algo] = time_best(fn, repeat=1 if algo == "nested_loop" and n > 500 else 2)
        agree = outcomes["nested_loop"] == outcomes["hash"] == outcomes["sort_merge"]
        table.add(
            n,
            len(cat["S"]),
            fmt_seconds(times["nested_loop"]),
            fmt_seconds(times["hash"]),
            fmt_seconds(times["sort_merge"]),
            agree,
        )
    table.note("hash builds on the right operand (Section 6 restriction)")
    return table


# ---------------------------------------------------------------------------
# E10 — nest join vs outerjoin + ν* (Section 6 algebra)
# ---------------------------------------------------------------------------

def e10_outerjoin_detour(sizes: tuple[int, ...] = (100, 300, 900)) -> ResultTable:
    table = ResultTable(
        "E10 — X Δ Y vs ν*(X ⟕ Y): the NULL detour the nest join avoids",
        ("|X|", "nest join", "outerjoin+ν*", "ratio", "equal"),
    )
    for n in sizes:
        wl = make_join_workload(n_left=n, match_rate=0.5, fanout=2, seed=n + 1)
        cat = wl.catalog
        nj = NestJoin(Scan("R", "r"), Scan("S", "s"), parse("r.c = s.c"), None, "zs")
        detour = nestjoin_via_outerjoin(nj)
        a = frozenset(run_physical(nj, cat))
        b = frozenset(run_physical(detour, cat))
        t_nj = time_best(lambda: run_physical(nj, cat), 3)
        t_oj = time_best(lambda: run_physical(detour, cat), 3)
        table.add(n, fmt_seconds(t_nj), fmt_seconds(t_oj), f"{speedup(t_oj, t_nj):.2f}x", a == b)
    table.note("same result, one operator instead of two and no NULLs")
    return table


# ---------------------------------------------------------------------------
# E11 — semijoin/antijoin vs nest join for rewritable predicates (Theorem 1)
# ---------------------------------------------------------------------------

def e11_semijoin_vs_nestjoin(sizes: tuple[int, ...] = (200, 400, 800)) -> ResultTable:
    table = ResultTable(
        "E11 — Theorem 1 payoff: flat join vs nest join for x.c IN z",
        ("|X|", "semijoin (classifier)", "nest join (forced)", "speedup", "equal"),
    )
    for n in sizes:
        wl = make_join_workload(n_left=n, n_right=n, match_rate=0.5, fanout=4, seed=n + 2)
        cat = wl.catalog
        query = "SELECT r FROM R r WHERE r.b IN (SELECT s.d FROM S s WHERE r.c = s.c)"
        tr = prepare(query, cat)
        assert tr.join_kinds() == ["semijoin"]
        semi = run_query(query, cat, engine="physical").value
        # The grouped alternative the classifier lets us skip:
        grouped_plan = Select(
            NestJoin(Scan("R", "r"), Scan("S", "s"), parse("r.c = s.c"), parse("s.d"), "zs"),
            parse("r.b IN zs"),
        )
        grouped = frozenset(row["r"] for row in run_physical(grouped_plan, cat))

        # Both plans compiled and run the same way, both cold: warm, the
        # cached group table hides the grouping cost the semijoin saves.
        def cold(plan):
            clear_build_cache()
            run_physical(plan, cat)

        t_semi = time_best(lambda: cold(tr.plan), 3)
        t_group = time_best(lambda: cold(grouped_plan), 3)
        table.add(n, fmt_seconds(t_semi), fmt_seconds(t_group), f"{speedup(t_group, t_semi):.2f}x", semi == grouped)
    table.note("cold build cache on both sides: the semijoin needs no group materialisation")
    return table


# ---------------------------------------------------------------------------
# E12 — scaling: optimizer-chosen plan vs naive
# ---------------------------------------------------------------------------

def e12_scaling(sizes: tuple[int, ...] = (50, 100, 200, 400)) -> ResultTable:
    table = ResultTable(
        "E12 — COUNT-bug query: naive vs optimizer-chosen plan across sizes",
        ("|R|", "naive", "optimized", "speedup", "correct"),
    )
    for n in sizes:
        wl = make_join_workload(n_left=n, match_rate=0.5, fanout=2, seed=n + 3)
        cat = wl.catalog
        oracle = run_query(COUNT_BUG_NESTED, cat, engine="interpret").value
        planned = run_query(COUNT_BUG_NESTED, cat, engine="physical").value
        t_naive = time_best(lambda: run_query(COUNT_BUG_NESTED, cat, engine="interpret").value, 1)
        t_plan = time_best(lambda: run_query(COUNT_BUG_NESTED, cat, engine="physical").value, 3)
        table.add(n, fmt_seconds(t_naive), fmt_seconds(t_plan), f"{speedup(t_naive, t_plan):.1f}x", planned == oracle)
    return table


# ---------------------------------------------------------------------------
# E13 — extension ablation: logical rewrite pass on/off
# ---------------------------------------------------------------------------

REWRITE_ABLATION_QUERY = (
    "SELECT x FROM X x "
    "WHERE x.a SUBSETEQ (SELECT y.a FROM Y y WHERE x.b = y.b) AND x.c = 0"
)


def e13_rewrite_ablation(n_left: int = 400, n_right: int = 300) -> ResultTable:
    cat = make_set_workload(n_left=n_left, n_right=n_right, match_rate=0.6, seed=23)
    on = run_query(REWRITE_ABLATION_QUERY, cat, engine="physical", rewrite=True).value
    off = run_query(REWRITE_ABLATION_QUERY, cat, engine="physical", rewrite=False).value
    t_on = time_best(lambda: run_query(REWRITE_ABLATION_QUERY, cat, engine="physical", rewrite=True), 3)
    t_off = time_best(lambda: run_query(REWRITE_ABLATION_QUERY, cat, engine="physical", rewrite=False), 3)
    table = ResultTable(
        f"E13 (extension) — selection pushdown on vs off (|X|={n_left})",
        ("rewrites", "rows", "time"),
    )
    table.add("on (filter below nest join)", len(on), fmt_seconds(t_on))
    table.add("off (translated order)", len(off), fmt_seconds(t_off))
    table.note(f"equal results: {on == off}; speedup {speedup(t_off, t_on):.2f}x")
    return table


# ---------------------------------------------------------------------------
# E14 — extension ablation: persistent index vs per-query hash build
# ---------------------------------------------------------------------------

def e14_index_join(n_left: int = 400) -> ResultTable:
    from repro.engine.executor import run_physical as _run

    wl = make_join_workload(n_left=n_left, match_rate=0.6, fanout=3, seed=31)
    cat = wl.catalog
    tr = prepare(COUNT_BUG_NESTED, cat)
    _run(tr.plan, cat, force_algorithm="index_nested_loop")  # warm the index
    a = frozenset(_run(tr.plan, cat, force_algorithm="index_nested_loop"))
    b = frozenset(_run(tr.plan, cat, force_algorithm="hash"))
    t_index = time_best(lambda: _run(tr.plan, cat, force_algorithm="index_nested_loop"), 3)
    t_hash = time_best(lambda: _run(tr.plan, cat, force_algorithm="hash"), 3)
    table = ResultTable(
        f"E14 (extension) — warm index-nested-loop vs per-query hash build (|R|={n_left})",
        ("algorithm", "time"),
    )
    table.add("index_nested_loop (warm)", fmt_seconds(t_index))
    table.add("hash (build per query)", fmt_seconds(t_hash))
    table.note(f"equal results: {a == b}")
    return table


# ---------------------------------------------------------------------------
# E15 — extension ablation: cost-based reordering via the Section 6 laws
# ---------------------------------------------------------------------------

def e15_plan_enumeration() -> ResultTable:
    from repro.algebra.enumerate import choose_plan
    from repro.algebra.plan import Join, NestJoin, Scan
    from repro.engine.executor import run_physical as _run

    cat = Catalog()
    cat.add_rows("X", [Tup(a=i % 5, b=i % 2) for i in range(40)])
    cat.add_rows("Y", [Tup(c=i, d=i % 2) for i in range(300)])
    cat.add_rows("Z", [Tup(e=0, f=i % 5) for i in range(40)])
    original = NestJoin(
        Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d")),
        Scan("Z", "z"),
        parse("x.a = z.f"),
        None,
        "zs",
    )
    chosen = choose_plan(original, cat)
    equal = frozenset(_run(original, cat)) == frozenset(_run(chosen, cat))
    t_orig = time_best(lambda: _run(original, cat), 3)
    t_chosen = time_best(lambda: _run(chosen, cat), 3)
    table = ResultTable(
        "E15 (extension) — (X ⋈ Y) Δ Z vs cost-chosen (X Δ Z) ⋈ Y under an expanding join",
        ("plan", "shape", "time"),
    )
    table.add("as translated", "(X ⋈ Y) Δ Z", fmt_seconds(t_orig))
    shape = "(X Δ Z) ⋈ Y" if isinstance(chosen, Join) else "(X ⋈ Y) Δ Z"
    table.add("cost-chosen", shape, fmt_seconds(t_chosen))
    table.note(f"equal results: {equal}; speedup {speedup(t_orig, t_chosen):.2f}x")
    return table


# ---------------------------------------------------------------------------
# E16 — extension: prepared-query serving (plan + build-side caches)
# ---------------------------------------------------------------------------

def e16_prepared_serving(
    n_left: int = 200, n_right: int = 6000, repeat: int = 5
) -> ResultTable:
    """Cold per-call ``run_query`` vs warm prepared serving.

    *Cold* models the first query after a data load: table versions are
    bumped and the plan/build caches dropped before every call, so each
    call pays parse → typecheck → translate → compile → build. *Warm* is
    the steady serving state: every layer hits.
    """
    from repro.core.pipeline import clear_plan_cache, prepared

    workload = make_join_workload(n_left=n_left, n_right=n_right, fanout=4, seed=11)
    catalog = workload.catalog

    def cold() -> frozenset:
        for name in catalog:
            catalog[name].bump_version()
        clear_plan_cache()
        clear_build_cache()
        return run_query(COUNT_BUG_NESTED, catalog).value

    def warm() -> frozenset:
        return prepared(COUNT_BUG_NESTED, catalog).execute(catalog)

    a = cold()
    t_cold = time_best(cold, repeat)
    warm()  # fill every cache layer
    b = warm()
    t_warm = time_best(warm, repeat)
    table = ResultTable(
        f"E16 (extension) — prepared serving, COUNT-bug query on R({n_left}) ⋈ S({n_right})",
        ("mode", "per call", "calls/sec"),
    )
    table.add("cold run_query (caches dropped)", fmt_seconds(t_cold), f"{1 / t_cold:.0f}")
    table.add("warm prepared serving", fmt_seconds(t_warm), f"{1 / t_warm:.0f}")
    table.note(f"equal results: {a == b}; speedup {speedup(t_cold, t_warm):.2f}x")
    return table


EXPERIMENTS = {
    "E1": ("Table 1 — nest equijoin", e1_table1),
    "E2": ("Table 2 — predicate rewriting", e2_table2),
    "E3": ("COUNT bug", e3_count_bug),
    "E4": ("SUBSETEQ bug", e4_subseteq_bug),
    "E5": ("Queries Q1/Q2", e5_q1_q2),
    "E6": ("UNNEST collapse", e6_unnest_collapse),
    "E7": ("Section 8 pipeline", e7_section8),
    "E8": ("Nested-loop vs flat", e8_nested_vs_flat),
    "E9": ("Nest join implementations", e9_nestjoin_impls),
    "E10": ("Outerjoin detour", e10_outerjoin_detour),
    "E11": ("Semijoin vs nest join", e11_semijoin_vs_nestjoin),
    "E12": ("Scaling", e12_scaling),
    "E13": ("Extension: rewrite ablation", e13_rewrite_ablation),
    "E14": ("Extension: index join", e14_index_join),
    "E15": ("Extension: plan enumeration", e15_plan_enumeration),
    "E16": ("Extension: prepared serving", e16_prepared_serving),
}
