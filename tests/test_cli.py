"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.engine.table import Catalog
from repro.io import dump_catalog
from repro.model.values import Tup


@pytest.fixture
def db(tmp_path):
    catalog = Catalog()
    catalog.add_rows("R", [Tup(a=1, b=2, c=10), Tup(a=2, b=0, c=99)])
    catalog.add_rows("S", [Tup(c=10, d=1), Tup(c=10, d=2)])
    path = tmp_path / "db.json"
    dump_catalog(catalog, path)
    return str(path)


COUNT_QUERY = "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)"


class TestQueryCommand:
    def test_runs_and_prints_rows(self, db, capsys):
        assert main(["query", COUNT_QUERY, "--db", db]) == 0
        out = capsys.readouterr()
        assert "(a=1, b=2, c=10)" in out.out
        assert "(a=2, b=0, c=99)" in out.out  # the dangling row
        assert "2 rows" in out.err

    @pytest.mark.parametrize("engine", ["interpret", "logical", "physical"])
    def test_engines(self, db, capsys, engine):
        assert main(["query", COUNT_QUERY, "--db", db, "--engine", engine]) == 0
        assert engine in capsys.readouterr().err

    def test_type_error_is_reported(self, db, capsys):
        assert main(["query", "SELECT r.nope FROM R r", "--db", db]) == 1
        assert "error:" in capsys.readouterr().err

    def test_no_typecheck_flag(self, db, capsys):
        # Without typecheck the error surfaces at runtime instead.
        code = main(["query", "SELECT r.a FROM R r", "--db", db, "--no-typecheck"])
        assert code == 0

    def test_parse_error_is_reported(self, db, capsys):
        assert main(["query", "SELECT FROM", "--db", db]) == 1
        assert "error:" in capsys.readouterr().err


class TestAnalyzeAndTrace:
    def test_query_analyze_prints_operator_stats(self, db, capsys):
        assert main(["query", COUNT_QUERY, "--db", db, "--analyze"]) == 0
        out = capsys.readouterr().out
        # Per-operator actuals for a nest-join plan, including the
        # build-cache account and the peak group size.
        assert "NestJoin" in out
        assert "act=" in out and "in=" in out and "q=" in out and "ms" in out
        assert "cache" in out and "miss" in out
        assert "peak group" in out

    def test_explain_analyze(self, db, capsys):
        assert main(["explain", COUNT_QUERY, "--db", db, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "analyze:" in out
        assert "act=" in out and "q=" in out

    def test_trace_text(self, db, capsys):
        assert main(["trace", COUNT_QUERY, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "trace t" in out
        assert "table2:" in out and "verdict=grouping" in out
        assert "nestjoin" in out
        assert "act=" in out  # operator tree appended

    def test_trace_chrome_is_valid_trace_event_json(self, db, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(
            ["trace", COUNT_QUERY, "--db", db, "--format", "chrome", "--out", str(out_path)]
        ) == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        for event in doc["traceEvents"]:
            assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(event)
        assert doc["otherData"]["query"] == COUNT_QUERY

    def test_trace_chrome_to_stdout(self, db, capsys):
        assert main(["trace", COUNT_QUERY, "--db", db, "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]


class TestOtherCommands:
    def test_explain(self, db, capsys):
        assert main(["explain", COUNT_QUERY, "--db", db]) == 0
        out = capsys.readouterr().out
        assert "nestjoin" in out
        assert "Scan R AS r" in out

    def test_tables(self, db, capsys):
        assert main(["tables", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "R: 2 rows" in out
        assert "S: 2 rows" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "dangling" in out
        assert "(a=2, b=0, c=99)" in out

    def test_fuzz(self, capsys):
        assert main(["fuzz", "--n", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "15 random queries agreed" in out

    def test_schema_option_validates(self, db, tmp_path, capsys):
        good = tmp_path / "good.ddl"
        good.write_text(
            "CLASS RRow WITH EXTENSION R ATTRIBUTES a : INT, b : INT, c : INT END RRow"
        )
        assert main(["tables", "--db", db, "--schema", str(good)]) == 0
        bad = tmp_path / "bad.ddl"
        bad.write_text(
            "CLASS RRow WITH EXTENSION R ATTRIBUTES a : STRING END RRow"
        )
        assert main(["tables", "--db", db, "--schema", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_query_repeat_reports_latency_percentiles(self, db, capsys):
        assert main(["query", COUNT_QUERY, "--db", db, "--repeat", "5"]) == 0
        err = capsys.readouterr().err
        assert "5 calls" in err
        assert "p50" in err and "p95" in err
        assert "plan cache" in err

    def test_caches_plain_renders_live_endpoint(self, capsys):
        from repro.server.exposition import serve_metrics
        from repro.server.service import QueryService
        from repro.server.workload import make_requests, mixed_catalog

        catalog = mixed_catalog(seed=0, n_left=20, n_right=80, n_chain=4)
        with QueryService(catalog, workers=2) as service:
            service.serve_all(make_requests(20, seed=0))
            with serve_metrics(service) as server:
                code = main(
                    ["caches", "--url", server.url, "--plain",
                     "--iterations", "1", "--top", "2"]
                )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro caches —" in out and "total=" in out
        for name in ("plan", "build", "result"):
            assert name in out
        assert "KiB" in out or "MiB" in out  # nonzero human-readable bytes
        assert "\x1b[2J" not in out  # --plain never clears the screen

    def test_caches_unreachable_endpoint_fails_cleanly(self, capsys):
        code = main(["caches", "--url", "http://127.0.0.1:9", "--iterations", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_metrics_cache_budget_flag(self, tmp_path, capsys):
        from repro.core.pipeline import set_plan_cache_budget
        from repro.engine.cache import set_build_cache_budget

        out_path = tmp_path / "metrics.txt"
        try:
            code = main(
                ["metrics", "--workers", "2", "--requests", "20",
                 "--cache-budget-mb", "0.002", "--out", str(out_path)]
            )
        finally:
            set_plan_cache_budget(None)
            set_build_cache_budget(None)
        assert code == 0
        assert "20/20 requests ok" in capsys.readouterr().err
        assert 'reason="budget"' in out_path.read_text()

    def test_missing_db_file(self, tmp_path, capsys):
        with pytest.raises(FileNotFoundError):
            main(["tables", "--db", str(tmp_path / "ghost.json")])

    def test_bad_catalog_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2]))
        assert main(["tables", "--db", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
