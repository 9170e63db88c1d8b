"""Concurrent serving: 8-worker service vs single-thread sequential loop.

Shape asserted (the acceptance bar for the query service): on the mixed
workload from :mod:`repro.server.workload`, an 8-worker ``QueryService``
achieves at least 2.5x the throughput of a sequential loop that executes
the same requests one at a time through ``prepared()`` — with zero oracle
mismatches against the interpreter engine and zero lost requests (every
submitted request gets exactly one response).

The win under the GIL comes from the serving layers, not CPU parallelism:
the version-keyed result cache answers repeats without even re-parsing,
and in-flight coalescing lets concurrent duplicates share one execution.
``docs/serving.md`` spells out this accounting.
"""

import pytest

from repro.server import QueryService
from repro.server.bench import run_serve_bench
from repro.server.workload import make_requests, mixed_catalog


@pytest.fixture(scope="module")
def report():
    return run_serve_bench(
        workers=8,
        requests=240,
        seed=3,
        n_left=120,
        n_right=800,
        n_chain=30,
    )


class TestShape:
    def test_service_beats_sequential(self, report):
        assert report["speedup"] >= 2.5

    def test_zero_oracle_mismatches(self, report):
        assert report["oracle_checked"] > 0
        assert report["oracle_mismatches"] == 0

    def test_zero_lost_requests(self, report):
        assert report["lost_requests"] == 0
        assert report["outcomes"].get("ok", 0) == report["requests"]

    def test_serving_caches_did_the_work(self, report):
        counters = report["stats"]["counters"]
        assert counters["result_hits"] + counters["result_coalesced"] > 0
        assert counters["completed"] == report["requests"]

    def test_rewrite_kind_counters(self, report):
        # The mixed workload exercises nested queries, so the translator's
        # decisions must show up in the per-kind counts, and each kind's
        # count cannot exceed the distinct leader executions.
        kinds = report["rewrite_kinds"]
        assert kinds, "expected per-rewrite-kind counts in the report"
        assert all(count > 0 for count in kinds.values())
        misses = report["stats"]["counters"]["result_misses"]
        assert all(count <= misses for count in kinds.values())

    def test_tracing_overhead_recorded(self, report):
        tracing = report["tracing"]
        assert tracing["baseline_seconds"] > 0
        assert tracing["traced_seconds"] > 0
        assert "overhead_pct" in tracing

    def test_slow_query_log_populated(self, report):
        slow = report["stats"]["slow_queries"]
        assert slow["slowest"], "expected slowest-N capture after a full run"
        entry = slow["slowest"][0]
        assert {"query", "trace_id", "total_seconds", "outcome"} <= set(entry)
        assert entry["outcome"] == "ok"


class TestTimings:
    @pytest.fixture(scope="class")
    def setup(self):
        catalog = mixed_catalog(seed=3, n_left=120, n_right=800, n_chain=30)
        requests = make_requests(60, seed=3, n_left=120)
        return catalog, requests

    def test_service_mixed_workload(self, benchmark, setup):
        catalog, requests = setup
        with QueryService(catalog, workers=8, queue_limit=0) as service:
            service.serve_all(requests)  # warm the serving caches
            benchmark(lambda: service.serve_all(requests))
