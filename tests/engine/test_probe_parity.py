"""The point-probe scan against the filter it replaces.

A selection ``v.attr = e`` (``e`` a constant or a parameter) directly over
``Scan v`` compiles to a scan that probes the table's persistent hash
index. Whatever the value — NULL, ``1`` against ``1.0``, no match, a
mistyped constant — and whatever the batch size, the probe must yield
exactly the rows ``PFilter`` keeps, must see a mutation between two runs,
and must raise the filter's error on a row that lacks the attribute.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import clear_plan_cache, prepared
from repro.engine.analyze import explain_analyze
from repro.engine.cancel import CancelToken, cancel_scope
from repro.engine.executor import execute
from repro.engine.physical import PFilter, PScan, compile_plan
from repro.engine.stats import estimated_work
from repro.engine.table import Catalog, Table
from repro.errors import CancelledError, ExecutionError
from repro.lang.ast import Const
from repro.lang.params import param_scope
from repro.lang.pretty import pretty
from repro.model.types import INT, TupleType
from repro.model.values import NULL, Tup

BATCH_SIZES = (1, 7, 1024)
VALUES = (0, 1, 1.0, 2, 2.5, NULL, 99, "x", True)


def _catalog() -> Catalog:
    cat = Catalog()
    rows = [Tup(a=i % 5, b=i) for i in range(40)]
    rows += [Tup(a=1.0, b=100), Tup(a=2.5, b=101), Tup(a=NULL, b=102), Tup(a=NULL, b=103)]
    cat.add_rows("R", rows)
    return cat


CAT = _catalog()


def _plans(pred_text: str):
    """(probe tree, filter tree) for ``SELECT r FROM R r WHERE <pred>``."""
    plan = prepared(f"SELECT r FROM R r WHERE {pred_text}", CAT, typecheck=False).plan
    probe = compile_plan(plan, CAT)
    select = plan.child  # Map(Select(Scan))
    reference = compile_plan(plan, CAT)
    reference.child = PFilter(PScan("R", "r"), select.pred)
    return probe, reference


def _scans(op):
    if isinstance(op, PScan):
        yield op
    for child in op.children():
        yield from _scans(child)


def _run(physical, batch_size, params=None):
    with param_scope(params or {}):
        return Counter(execute(physical, CAT, batch_size=batch_size))


def test_equality_over_a_scan_compiles_to_a_probe():
    probe, _reference = _plans("r.a = 1")
    (scan,) = _scans(probe)
    assert scan.probe is not None and scan.probe[0] == "a"
    assert not any(isinstance(op, PFilter) for op in _walk(probe))
    probe, _ = _plans("1 = r.a AND r.b > 3")
    (scan,) = _scans(probe)
    assert scan.probe is not None
    assert isinstance(probe.child, PFilter)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=20, deadline=None)
@given(value=st.sampled_from(VALUES), rest=st.sampled_from(["", " AND r.b > 10", " AND r.b < 3"]))
def test_constant_probe_equals_filter(batch_size, value, rest):
    probe, reference = _plans(f"r.a = {pretty(Const(value))}{rest}")
    assert next(_scans(probe)).probe is not None
    assert _run(probe, batch_size) == _run(reference, batch_size)


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@settings(max_examples=20, deadline=None)
@given(value=st.sampled_from(VALUES))
def test_parameter_probe_equals_filter(batch_size, value):
    probe, reference = _plans("r.a = $k")
    params = {"k": value}
    assert _run(probe, batch_size, params) == _run(reference, batch_size, params)


def test_one_matches_one_point_zero_and_null_matches_null():
    probe, _ = _plans("r.a = $k")
    ones = _run(probe, 1024, {"k": 1})
    assert {row["out"]["b"] for row in ones} == {1, 6, 11, 16, 21, 26, 31, 36, 100}
    assert {row["out"]["b"] for row in _run(probe, 1024, {"k": NULL})} == {102, 103}
    assert _run(probe, 1024, {"k": 99}) == Counter()
    assert _run(probe, 1024, {"k": float("nan")}) == Counter()


def test_mutation_between_runs_rebuilds_the_index():
    cat = Catalog()
    cat.add_rows("R", [Tup(a=i % 3, b=i) for i in range(9)])
    pq = prepared("SELECT r.b FROM R r WHERE r.a = $k", cat, params={"k": 0})
    assert pq.execute(cat, {"k": 0}) == {0, 3, 6}
    index = cat["R"].hash_index(("a",))
    cat["R"].insert([Tup(a=0, b=50)])
    assert pq.execute(cat, {"k": 0}) == {0, 3, 6, 50}
    assert cat["R"].hash_index(("a",)) is not index
    cat["R"].delete(lambda row: row["b"] == 3)
    assert pq.execute(cat, {"k": 0}) == {0, 6, 50}


def test_row_lacking_the_attribute_raises_the_filters_error():
    row_type = TupleType({"a": INT, "b": INT})
    cat = Catalog()
    cat.add(Table("M", [Tup(a=1, b=1), Tup(b=2), Tup(a=3, b=3)], row_type=row_type))
    plan = prepared("SELECT m FROM M m WHERE m.a = 3", cat).plan
    probe = compile_plan(plan, cat)
    assert next(_scans(probe)).probe is not None
    reference = compile_plan(plan, cat)
    reference.child = PFilter(PScan("M", "m"), plan.child.pred)
    with pytest.raises(ExecutionError) as filtered:
        execute(reference, cat)
    with pytest.raises(ExecutionError) as probed:
        execute(probe, cat)
    assert str(probed.value) == str(filtered.value)


def test_attribute_the_row_type_does_not_declare_is_not_probed():
    cat = Catalog()
    cat.add(Table("M", [Tup(a=1)], row_type=TupleType({"a": INT})))
    probe = compile_plan(
        prepared("SELECT m FROM M m WHERE m.z = 1", cat, typecheck=False).plan, cat
    )
    assert next(_scans(probe)).probe is None


def test_explain_shows_the_probe_on_the_scan_line():
    clear_plan_cache()
    pq = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": 1})
    text = pq.explain(CAT)
    assert "Scan R AS r ON a = $key" in text
    assert "Filter" not in text.split("physical plan:")[1]


def test_analyze_estimates_and_progress_treat_it_like_any_scan():
    pq = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": 2})
    physical = pq.compile_for(CAT)
    scan = next(_scans(physical))
    assert estimated_work(physical) >= scan.est_rows >= 1.0
    run = pq.analyze(CAT, {"key": 2})
    assert len(run.rows) == 8
    scan_stats = run.stats.children[0]
    assert scan_stats.op.describe() == "Scan R AS r ON a = $key"
    assert scan_stats.rows == 8
    assert "Scan R AS r ON a = $key" in explain_analyze(run)

    class Sink:
        def __init__(self):
            self.by_op = Counter()

        def advance(self, rows, op):
            self.by_op[op] += rows

    token = CancelToken()
    token.progress = Sink()
    with cancel_scope(token):
        pq.execute(CAT, {"key": 2})
    assert token.progress.by_op["Scan R AS r ON a = $key"] == 8


def test_cancelled_token_stops_a_probe():
    pq = prepared("SELECT r FROM R r WHERE r.a = $key", CAT, params={"key": 2})
    token = CancelToken()
    token.cancel()
    with cancel_scope(token), pytest.raises(CancelledError):
        pq.execute(CAT, {"key": 2})


def _walk(op):
    yield op
    for child in op.children():
        yield from _walk(child)


def test_selection_over_a_join_stays_a_filter():
    pq = prepared("SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM R s WHERE s.a = r.a)", CAT)
    assert all(scan.probe is None for scan in _scans(pq.compile_for(CAT)))
