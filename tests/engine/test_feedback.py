"""Tests for cardinality feedback (q-error) and its metrics aggregation."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.plan import Map, NestJoin, Scan, Select
from repro.engine.analyze import analyze, explain_analyze
from repro.engine.feedback import (
    FEEDBACK,
    OpFeedback,
    clear_feedback,
    feedback_entries,
    op_kind,
    q_error,
    record_run,
    top_misestimates,
)
from repro.engine.physical import compile_plan
from repro.engine.table import Catalog
from repro.lang.parser import parse
from repro.model.values import Tup
from repro.server.metrics import MetricsRegistry


@pytest.fixture
def catalog():
    cat = Catalog()
    cat.add_rows("X", [Tup(a=i, b=i % 3) for i in range(9)])
    cat.add_rows("Y", [Tup(c=i, d=i % 3) for i in range(6)])
    return cat


def plan():
    return Map(
        Select(
            NestJoin(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"), None, "zs"),
            parse("COUNT(zs) = 2"),
        ),
        parse("x.a"),
        "v",
    )


class TestQError:
    @given(
        est=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        act=st.integers(min_value=0, max_value=10**12),
    )
    @settings(max_examples=200)
    def test_always_finite_and_at_least_one(self, est, act):
        q = q_error(est, act)
        assert q >= 1.0
        assert math.isfinite(q)

    @given(
        a=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_symmetric(self, a, b):
        assert q_error(a, b) == q_error(b, a)

    def test_exact_estimate_scores_one(self):
        assert q_error(42.0, 42) == 1.0
        # Sub-row values floor to one row: an empty actual is not infinite.
        assert q_error(0.0, 0) == 1.0
        assert q_error(50.0, 0) == 50.0

    def test_ratio(self):
        assert q_error(10.0, 40) == pytest.approx(4.0)
        assert q_error(40.0, 10) == pytest.approx(4.0)


class TestFeedbackEntries:
    def test_entries_cover_every_operator(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        entries = feedback_entries(run)
        # Map, Select, NestJoin and Scan X; the nest join's group table is
        # built from Y's index, so Scan Y never runs and is left out.
        assert len(entries) == 4
        kinds = {e.kind for e in entries}
        assert "join_nest" in kinds and "scan" in kinds
        assert [e.describe for e in entries if e.kind == "scan"] == ["Scan X AS x"]

    def test_entry_invariants(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        for e in feedback_entries(run):
            assert e.q >= 1.0 and math.isfinite(e.q)
            assert e.est >= 0 and e.act >= 0
            assert e.kind and e.describe
            d = e.to_dict()
            assert set(d) == {"op", "kind", "est", "act", "q"}

    def test_top_misestimates_sorted_and_excludes_exact(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        top = top_misestimates(run, k=2)
        assert len(top) <= 2
        qs = [e.q for e in top]
        assert qs == sorted(qs, reverse=True)
        assert all(q > 1.0 for q in qs)

    def test_top_misestimates_accepts_entry_list(self):
        entries = [
            OpFeedback("scan", "Scan X", 10.0, 10, 1.0),
            OpFeedback("join_nest", "NestJoin", 5.0, 50, 10.0),
            OpFeedback("map", "Map", 4.0, 8, 2.0),
        ]
        top = top_misestimates(entries, k=3)
        assert [e.kind for e in top] == ["join_nest", "map"]


class TestRecordRun:
    def test_populates_registry(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        registry = MetricsRegistry()
        entries = record_run(run, rewrite_kinds=("nestjoin",), registry=registry)
        snap = registry.snapshot()
        assert snap["counters"]["analyzed_runs"] == 1
        assert snap["histograms"]["qerror"]["count"] == len(entries)
        assert set(snap["labeled_histograms"]["qerror_by_op"]) == {
            e.kind for e in entries
        }
        by_rewrite = snap["labeled_histograms"]["qerror_by_rewrite"]
        assert by_rewrite["nestjoin"]["count"] == 1
        # The rewrite family records the plan's worst operator q-error.
        assert by_rewrite["nestjoin"]["max"] == max(e.q for e in entries)

    def test_default_registry_is_module_global(self, catalog):
        clear_feedback()
        run = analyze(compile_plan(plan(), catalog), catalog)
        record_run(run)
        from repro.engine import feedback

        assert feedback.FEEDBACK.snapshot()["counters"]["analyzed_runs"] == 1
        clear_feedback()
        assert "analyzed_runs" not in feedback.FEEDBACK.snapshot()["counters"]

    def test_clear_feedback_reassigns(self):
        clear_feedback()
        from repro.engine import feedback

        assert feedback.FEEDBACK is not FEEDBACK or not FEEDBACK.snapshot()["counters"]


class TestOpKind:
    def test_kinds_from_analyzed_plan(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)

        def walk(op):
            yield op
            for child in getattr(op, "children", ()):
                yield child

        # op_kind is derived from the physical operator class / join mode;
        # every operator in the tree maps to a lowercase identifier.
        for entry in feedback_entries(run):
            assert entry.kind == entry.kind.lower()
            assert " " not in entry.kind


class TestExplainAnalyzeRendering:
    def test_subseteq_bug_nest_join_reports_est_act(self):
        # Regression: the SUBSETEQ-bug query (Section 4) goes through the
        # nest-join rewrite; its NestJoin line must carry the est/act/q keys.
        from repro.core.pipeline import prepared
        from repro.server.workload import mixed_catalog
        from repro.workloads.queries import SUBSETEQ_BUG_NESTED

        catalog = mixed_catalog(seed=3, n_left=40, n_right=160, n_chain=8)
        pq = prepared(SUBSETEQ_BUG_NESTED, catalog)
        assert pq.plan is not None
        run = pq.analyze(catalog)
        text = explain_analyze(run)
        join_lines = [l for l in text.splitlines() if "NestJoin" in l or "Join" in l]
        assert join_lines, text
        for line in join_lines:
            assert "est=" in line and "act=" in line and "q=" in line, line
