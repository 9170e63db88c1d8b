"""Tests for EXPLAIN ANALYZE (instrumented execution)."""

from collections import Counter

import pytest

from repro.algebra.plan import Join, Map, NestJoin, Scan, Select
from repro.engine.analyze import analyze, explain_analyze
from repro.engine.executor import run_physical
from repro.engine.physical import compile_plan
from repro.engine.table import Catalog
from repro.lang.parser import parse
from repro.model.values import Tup


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


class TestAnalyze:
    def test_rows_match_uninstrumented_run(self, catalog):
        compiled = compile_plan(plan(), catalog)
        run = analyze(compiled, catalog)
        plain = run_physical(plan(), catalog)
        assert Counter(run.rows) == Counter(plain)

    def test_operator_row_counts(self, catalog):
        compiled = compile_plan(plan(), catalog)
        run = analyze(compiled, catalog)
        # Map at the root: its row count equals the result size.
        assert run.stats.rows == len(run.rows)
        # Below it the Select, then the NestJoin emitting one row per X row.
        select_stats = run.stats.children[0]
        nest_stats = select_stats.children[0]
        assert nest_stats.rows == len(catalog["X"])
        # Scans emit one binding per table row.
        scan_x = nest_stats.children[0]
        assert scan_x.rows == len(catalog["X"])

    def test_times_are_recorded(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        assert run.total_seconds > 0
        assert run.stats.seconds > 0

    def test_render(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        text = explain_analyze(run)
        assert "total:" in text
        assert "act=" in text
        assert "Scan X AS x" in text
        assert "NestJoin" in text

    def test_join_with_index_algorithm(self, catalog):
        compiled = compile_plan(
            Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d")),
            catalog,
            force_algorithm="index_nested_loop",
        )
        run = analyze(compiled, catalog)
        plain = run_physical(
            Join(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d")),
            catalog,
            force_algorithm="index_nested_loop",
        )
        assert Counter(run.rows) == Counter(plain)

    def test_estimate_vs_actual_visible(self, catalog):
        run = analyze(compile_plan(plan(), catalog), catalog)
        text = explain_analyze(run)
        # The cardinality-feedback triple renders on every operator line.
        assert "est=" in text and "act=" in text and "q=" in text

    def test_rendered_qerror_matches_feedback(self, catalog):
        import re

        from repro.engine.feedback import q_error

        run = analyze(compile_plan(plan(), catalog), catalog)
        for line in explain_analyze(run).splitlines()[1:]:
            if "not executed" in line:
                assert "q=" not in line, line
                continue
            m = re.search(r"est=(\d+), in=\d+, act=(\d+), q=([\d.]+)", line)
            assert m is not None, line
            est, act, q = float(m.group(1)), int(m.group(2)), float(m.group(3))
            assert q == pytest.approx(q_error(est, act), abs=0.005)


class TestOperatorTimes:
    """Each operator is charged for its own ``next()`` calls only."""

    @pytest.fixture
    def wide(self):
        cat = Catalog()
        cat.add_rows("X", [Tup(a=i, b=i % 7) for i in range(150)])
        cat.add_rows("Y", [Tup(c=i, d=i % 11) for i in range(150)])
        return cat

    # A correlated subquery per row: all of the work is the Map's.
    SLOW = parse("COUNT(SELECT y FROM Y y WHERE y.d = x.b)")

    def test_self_times_sum_to_the_total(self, wide):
        tree = Map(
            Select(
                NestJoin(Scan("X", "x"), Scan("Y", "y"), parse("x.b = y.d"), None, "zs"),
                parse("COUNT(zs) > 0"),
            ),
            self.SLOW,
            "v",
        )
        run = analyze(compile_plan(tree, wide, force_algorithm="hash"), wide)

        def nodes(stats):
            yield stats
            for child in stats.children:
                yield from nodes(child)

        selves = [s.self_seconds for s in nodes(run.stats)]
        assert min(selves) >= 0
        assert sum(selves) == pytest.approx(run.stats.seconds)
        # What the tree does not account for is the analyze loop itself.
        assert 0.8 * run.total_seconds <= sum(selves) <= run.total_seconds

    def test_expensive_map_is_charged_to_the_map(self, wide):
        run = analyze(compile_plan(Map(Scan("X", "x"), self.SLOW, "v"), wide), wide)
        (scan,) = run.stats.children
        assert run.stats.self_seconds >= 0.8 * run.stats.seconds
        assert scan.seconds <= 0.1 * run.stats.seconds
        root_line, scan_line = explain_analyze(run).splitlines()[1:]
        assert "self " in root_line and "self " in scan_line


    def test_result_gathering_is_charged_to_the_root(self):
        # The COUNT-bug plan keeps about 1 000 of 2 000 rows; turning them
        # into result tuples took 28 % of the run when no operator was
        # charged for it.
        from repro.algebra.interpreter import result_set
        from repro.core.pipeline import prepared
        from repro.workloads import COUNT_BUG_NESTED, make_join_workload

        cat = make_join_workload(n_left=2000, seed=1).catalog
        pq = prepared(COUNT_BUG_NESTED, cat)
        pq.analyze(cat)  # the group table is cached from here on
        run = pq.analyze(cat)
        assert len(run.rows) > 500
        assert run.total_seconds - run.stats.seconds < 0.05 * run.total_seconds
        assert result_set(run.rows) == pq.execute(cat)


class TestNotExecuted:
    """Operators that never ran are reported, not scored."""

    @staticmethod
    def check(run, skipped):
        from repro.engine.feedback import feedback_entries, record_run, top_misestimates
        from repro.server.metrics import MetricsRegistry

        lines = explain_analyze(run).splitlines()
        assert f"{skipped}  (est=" in "\n".join(lines)
        (line,) = [l for l in lines if skipped in l]
        assert line.endswith("not executed)") and "q=" not in line and "act=" not in line
        entries = feedback_entries(run)
        assert skipped not in {e.describe for e in entries}
        assert skipped not in {e.describe for e in top_misestimates(run, k=10)}
        registry = MetricsRegistry()
        record_run(run, registry=registry)
        assert registry.snapshot()["histograms"]["qerror"]["count"] == len(entries)

    def test_count_bug_right_scan_served_by_the_group_table(self):
        from repro.core.pipeline import prepared
        from repro.server.workload import mixed_catalog
        from repro.workloads.queries import COUNT_BUG_NESTED

        catalog = mixed_catalog(seed=1, n_left=40, n_right=240, n_chain=4)
        pq = prepared(COUNT_BUG_NESTED, catalog)
        pq.execute(catalog)  # warm the build cache
        run = pq.analyze(catalog)
        self.check(run, "Scan S AS s")
        # Every operator that did run is still scored.
        assert {e.describe for e in run.feedback()} >= {"Scan R AS r"}

    def test_scan_under_a_cache_hit_hash_nest_join(self, catalog):
        from repro.engine.cache import clear_build_cache

        clear_build_cache()
        compiled = compile_plan(plan(), catalog, force_algorithm="hash")
        analyze(compiled, catalog)
        run = analyze(compiled, catalog)
        nest = run.stats.children[0].children[0]
        assert nest.cache_hits == 1
        assert not nest.children[1].executed and nest.children[0].executed
        self.check(run, "Scan Y AS y")
