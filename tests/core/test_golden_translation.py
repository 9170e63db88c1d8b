"""Golden translation: the front end's output on every corpus text, pinned.

For each of the 200 ad-hoc texts in ``benchmarks/suite/corpus/adhoc.txt``
and the seven paper queries, ``golden_translation.json`` holds

* ``pretty(normalize_predicate(c))`` for every WHERE conjunct ``c`` of every
  SELECT block, in pre-order;
* the translation's step kinds (``null`` when the query is not translated);
* the Table 2 rows the classifier matched, in order;
* the translated plan, with generated names renumbered by first appearance.

The file was recorded before the lexer, AST traversal and normaliser were
rewritten for speed; those rewrites must reproduce it exactly. Re-record it
only for a deliberate change of the normal form or of the translation:

    PYTHONPATH=src python tests/core/test_golden_translation.py --record
"""

from __future__ import annotations

import json
import re
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.pretty import explain_plan
from repro.core.normalize import _canonical_cmp, normalize_predicate, push_not
from repro.core.pipeline import prepared
from repro.core.trace import QueryTrace, trace_scope
from repro.core.unnest import translate_query
from repro.engine.table import Catalog
from repro.lang.ast import (
    SFW,
    And,
    Expr,
    Not,
    Or,
    Quant,
    QuantKind,
    conjuncts,
    negate,
    transform,
    walk,
)
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.model.values import Tup, Variant
from repro.workloads import make_chain_workload, make_company, make_join_workload, queries

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ROOT / "benchmarks" / "suite" / "corpus" / "adhoc.txt"
GOLDEN = Path(__file__).with_name("golden_translation.json")

#: ``prefix_N`` names come from one process-wide counter, so their numbers
#: depend on what ran before; only the pattern of reuse is pinned.
_FRESH = re.compile(r"\b([A-Za-z]\w*?)_(\d+)\b")


def corpus_texts() -> dict[str, str]:
    lines = [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]
    return {f"adhoc{i:03d}": text for i, text in enumerate(lines)}


def paper_texts() -> dict[str, str]:
    return {name.lower(): getattr(queries, name) for name in queries.__all__}


@cache
def corpus_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_rows("X", [Tup(a=frozenset({1}), b=1, c=1, v=Variant("ok", 1))])
    catalog.add_rows("Y", [Tup(a=1, b=1)])
    catalog.add_rows("W", [Tup(a=1, b=1)])
    return catalog


@cache
def paper_catalog() -> Catalog:
    catalog = Catalog()
    sources = (
        make_join_workload(n_left=4, n_right=8, seed=0).catalog,
        make_chain_workload(n_x=3, n_y=3, n_z=3, set_size=1, seed=0),
        make_company(n_departments=2, n_employees=4, seed=0),
    )
    for source in sources:
        for name in source:
            catalog.add(source[name])
    return catalog


def _renumber(text: str) -> str:
    seen: dict[str, str] = {}

    def sub(match: re.Match) -> str:
        key = match.group(0)
        if key not in seen:
            seen[key] = f"{match.group(1)}_#{len(seen)}"
        return seen[key]

    return _FRESH.sub(sub, text)


def front_end(text: str, catalog: Catalog) -> dict:
    """What the golden file records for one query text."""
    ast = parse(text)
    normal = [
        pretty(normalize_predicate(c))
        for block in walk(ast)
        if isinstance(block, SFW)
        for c in conjuncts(block.where)
    ]
    trace = QueryTrace(query=text)
    with trace_scope(trace):
        translation = translate_query(ast, catalog) if isinstance(ast, SFW) else None
    return {
        "normal": normal,
        "steps": None if translation is None else [s.kind for s in translation.steps],
        "table2": [e.table2_row for e in trace.events if e.phase == "classify"],
        "plan": None if translation is None else _renumber(explain_plan(translation.plan)),
    }


def record() -> dict[str, dict]:
    out = {name: front_end(text, paper_catalog()) for name, text in paper_texts().items()}
    out.update({name: front_end(text, corpus_catalog()) for name, text in corpus_texts().items()})
    return out


@cache
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_corpus_and_paper_queries():
    assert set(golden()) == set(paper_texts()) | set(corpus_texts())
    assert len(golden()) == 207


@pytest.mark.parametrize("name", sorted(paper_texts()) + sorted(corpus_texts()))
def test_front_end_matches_golden(name):
    texts = {**paper_texts(), **corpus_texts()}
    catalog = paper_catalog() if name in paper_texts() else corpus_catalog()
    assert front_end(texts[name], catalog) == golden()[name]


def test_join_kind_counts():
    # `core.join_kind_count.*` of the benchmark's traced pass: one sweep over
    # the 207 texts, "nestjoin-select-clause" counting as a nest join and a
    # plan without grouping as "flat".
    counts = dict.fromkeys(("semijoin", "antijoin", "nestjoin", "flat", "interpreted"), 0)
    for name, text in {**paper_texts(), **corpus_texts()}.items():
        catalog = paper_catalog() if name in paper_texts() else corpus_catalog()
        for kind in prepared(text, catalog).rewrite_kinds():
            counts[next((k for k in counts if k in kind), "flat")] += 1
    assert list(counts.values()) == [81, 35, 167, 32, 0]


# -- the normal form against the three passes it fused -------------------------


def three_pass_normalize(expr: Expr) -> Expr:
    """FORALL elimination, then negation pushing, then canonical comparisons,
    each a pass of its own: how ``normalize_predicate`` used to run."""

    def eliminate_forall(e: Expr) -> Expr:
        if isinstance(e, Quant) and e.kind == QuantKind.FORALL:
            return Not(Quant(QuantKind.EXISTS, e.var, e.domain, negate(e.pred)))
        return e

    return transform(push_not(transform(expr, eliminate_forall)), _canonical_cmp)


SUB = parse("SELECT y.a FROM Y y WHERE x.b = y.b")
LEAVES = [
    parse(text)
    for text in (
        "x.c = 1", "x.c <> 0", "x.a SUBSET {1}", "TRUE", "FALSE", "x.c IN x.a",
        "COUNT(x.a) >= 1", "0 = COUNT(x.a)", "COUNT(x.a) < 1", "1 <= COUNT(x.a)",
        "COUNT(x.a) <> 0", "x.b NOT IN (SELECT y.a FROM Y y WHERE x.b = y.b)",
        "COUNT(SELECT y FROM Y y WHERE FORALL v IN x.a (v <> y.b)) = 0",
        "x.a = (SELECT y.a FROM Y y WHERE NOT (x.b = y.b OR 0 = COUNT(x.a)))",
    )
]


def predicates(depth: int):
    leaf = st.sampled_from(LEAVES)
    if depth == 0:
        return leaf
    sub = predicates(depth - 1)
    return st.one_of(
        leaf,
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: And(tuple(items))),
        st.lists(sub, min_size=2, max_size=3).map(lambda items: Or(tuple(items))),
        st.tuples(st.sampled_from(list(QuantKind)), st.sampled_from([parse("x.a"), SUB]), sub).map(
            lambda t: Quant(t[0], "w", t[1], t[2])
        ),
    )


@settings(max_examples=300, deadline=None)
@given(predicates(4))
def test_one_pass_matches_three(pred):
    assert normalize_predicate(pred) == three_pass_normalize(pred)


def test_one_pass_matches_three_on_the_corpus():
    for text in {**paper_texts(), **corpus_texts()}.values():
        for block in walk(parse(text)):
            if isinstance(block, SFW):
                for c in conjuncts(block.where):
                    assert normalize_predicate(c) == three_pass_normalize(c)


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN}")
