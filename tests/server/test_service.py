"""The query service: outcomes, caching, admission control, retries.

Deterministic behaviors are forced through the ``_execute_leader`` seam
(wrapped per-instance to inject slowness or version races) rather than by
racing real threads; the genuinely concurrent paths live in
``test_stress.py`` under the ``thread_stress`` marker.
"""

import time

import pytest

from repro.core.pipeline import clear_plan_cache, run_query
from repro.engine.cache import clear_build_cache
from repro.errors import RejectedError
from repro.server import QueryRequest, QueryService
from repro.server.workload import PARAM_LOOKUP
from repro.workloads import COUNT_BUG_NESTED, make_join_workload


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_build_cache()
    yield


@pytest.fixture
def catalog():
    return make_join_workload(n_left=60, n_right=200, fanout=2, seed=9).catalog


class TestBasicServing:
    def test_ok_response_matches_oracle(self, catalog):
        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        with QueryService(catalog, workers=2) as service:
            response = service.execute(COUNT_BUG_NESTED)
        assert response.ok
        assert response.value == oracle
        assert response.catalog_version == catalog.version
        assert response.attempts == 1
        assert response.result_cache == "miss"
        assert response.worker is not None and response.worker.startswith("repro-serve-")
        assert response.total_seconds >= response.execute_seconds >= 0

    def test_repeated_request_hits_result_cache(self, catalog):
        with QueryService(catalog, workers=2) as service:
            first = service.execute(COUNT_BUG_NESTED)
            second = service.execute(COUNT_BUG_NESTED)
        assert first.result_cache == "miss"
        assert second.result_cache == "hit"
        assert second.value == first.value

    def test_mutation_invalidates_result_cache(self, catalog):
        with QueryService(catalog, workers=1) as service:
            first = service.execute(COUNT_BUG_NESTED)
            catalog.table("S").delete(lambda row: row["c"] == 0)
            second = service.execute(COUNT_BUG_NESTED)
            assert second.result_cache == "miss"
            assert second.catalog_version > first.catalog_version
            assert second.value == run_query(
                COUNT_BUG_NESTED, catalog, engine="interpret"
            ).value

    def test_parameterized_requests(self, catalog):
        with QueryService(catalog, workers=2) as service:
            hit = service.execute(PARAM_LOOKUP, params={"key": 3})
            miss = service.execute(PARAM_LOOKUP, params={"key": 10**6})
        assert len(hit.value) == 1
        assert miss.value == frozenset()

    def test_interpreted_fallback_query(self, catalog):
        # Outer FROM operand is not a stored table: served via the
        # interpreter, still a structured ok response.
        with QueryService(catalog, workers=1) as service:
            response = service.execute("SELECT x FROM {1, 2, 3} x WHERE x > 1")
        assert response.ok
        assert len(response.value) == 2

    def test_bad_query_is_an_error_response_not_a_crash(self, catalog):
        with QueryService(catalog, workers=1) as service:
            response = service.execute("SELECT r.nope FROM R r")
        assert response.outcome == "error"
        assert response.error

    def test_unbound_param_is_an_error_response(self, catalog):
        with QueryService(catalog, workers=1) as service:
            response = service.execute(PARAM_LOOKUP)  # $key never bound
        assert response.outcome == "error"
        assert "unbound" in response.error

    def test_unbound_param_leaves_no_live_or_in_flight_entry(self, catalog):
        for typecheck in (True, False):
            with QueryService(catalog, workers=1, typecheck=typecheck) as service:
                response = service.execute("SELECT r FROM R r WHERE r.a = $x")
                assert response.outcome == "error", typecheck
                assert "unbound query parameter $x" in response.error
                assert service.registry.snapshot()["active"] == []
                assert service._inflight == {}

    def test_unused_params_are_ignored(self, catalog):
        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        with QueryService(catalog, workers=1) as service:
            response = service.execute(COUNT_BUG_NESTED, params={"unused": 1})
        assert response.ok and response.value == oracle

    def test_dollar_inside_a_literal_needs_no_binding(self):
        from repro import Catalog, Tup

        cat = Catalog()
        cat.add_rows("E", [Tup(name="pay $usd", k=1), Tup(name="other", k=2)])
        with QueryService(cat, workers=1) as service:
            response = service.execute("SELECT e.k FROM E e WHERE e.name = 'pay $usd'")
        assert response.ok, response.error
        assert response.value == frozenset({1})

    def test_one_plan_for_all_bindings_one_result_per_binding(self, catalog):
        from repro.core.pipeline import _PLAN_CACHE

        with QueryService(catalog, workers=1) as service:
            sources = [
                service.execute(PARAM_LOOKUP, params={"key": key}).result_cache
                for key in (3, 4, 3, 4)
            ]
            assert service.caches()["caches"]["result"]["top_entries"][0]["key"]["params"]
        assert sources == ["miss", "miss", "hit", "hit"]
        assert len(_PLAN_CACHE) == 1

    def test_equal_values_of_different_types_do_not_share_a_result(self, catalog):
        with QueryService(catalog, workers=1) as service:
            assert service.execute(PARAM_LOOKUP, params={"key": 1}).ok
            # True == 1 in Python, but BOOL does not type-check against INT.
            response = service.execute(PARAM_LOOKUP, params={"key": True})
        assert response.outcome == "error"
        assert "cannot compare" in response.error

    def test_stats_shape(self, catalog):
        with QueryService(catalog, workers=2) as service:
            service.execute(COUNT_BUG_NESTED)
            service.execute(COUNT_BUG_NESTED)
            stats = service.stats()
        assert stats["counters"]["admitted"] == 2
        assert stats["counters"]["completed"] == 2
        assert stats["counters"]["result_hits"] == 1
        assert stats["histograms"]["latency_ms"]["count"] == 2
        assert set(stats["caches"]) >= {"plan", "build", "result"}
        assert stats["caches"]["result"]["hits"] == 1
        # Every registered cache reports the byte axis alongside counters.
        for report in stats["caches"].values():
            assert "bytes" in report and "entries" in report
            assert "evictions_by_reason" in report
        assert stats["caches"]["result"]["bytes"] > 0
        assert stats["result_cache_bytes"] == stats["caches"]["result"]["bytes"]

    def test_result_cache_respects_byte_budget(self, catalog):
        from repro.core.pipeline import set_plan_cache_budget
        from repro.engine.cache import set_build_cache_budget

        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        try:
            # ~2KiB: far below one large result set, so big results must
            # evict (possibly themselves) rather than grow the cache.
            with QueryService(catalog, workers=1, cache_budget_mb=0.002) as service:
                budget = service.cache_budget_bytes
                assert budget == int(0.002 * 1024 * 1024)
                for key in range(6):
                    assert service.execute(PARAM_LOOKUP, params={"key": key}).ok
                    assert service._results.total_bytes <= budget
                big = service.execute(COUNT_BUG_NESTED)
                assert big.ok and big.value == oracle
                assert service._results.total_bytes <= budget
                report = service.caches()["caches"]["result"]
                assert report["evictions_by_reason"].get("budget", 0) >= 1
                assert report["memory_pressure"] >= 1
                # Eviction under pressure never corrupts what is served.
                again = service.execute(COUNT_BUG_NESTED)
                assert again.ok and again.value == oracle
        finally:
            set_plan_cache_budget(None)
            set_build_cache_budget(None)

    def test_submit_after_stop_is_rejected(self, catalog):
        service = QueryService(catalog, workers=1)
        service.start()
        service.stop()
        with pytest.raises(RejectedError):
            service.submit(COUNT_BUG_NESTED)

    def test_hooks_observe_every_response(self, catalog):
        seen = []

        def bad_hook(request, response):
            raise RuntimeError("observer down")

        with QueryService(catalog, workers=1) as service:
            service.add_hook(lambda request, response: seen.append((request, response)))
            service.add_hook(bad_hook)
            service.execute(COUNT_BUG_NESTED)
            service.execute(COUNT_BUG_NESTED)
            stats = service.stats()
        assert len(seen) == 2
        assert all(response.ok for _, response in seen)
        assert stats["counters"]["hook_errors"] == 2


def _slow_leader(service, delay):
    """Wrap the service's leader execution with a sleep (test seam)."""
    original = service._execute_leader

    def wrapped(pq, version):
        time.sleep(delay)
        return original(pq, version)

    service._execute_leader = wrapped


class TestTimeouts:
    def test_deadline_expires_mid_execution(self, catalog):
        with QueryService(catalog, workers=1) as service:
            response = service.execute(COUNT_BUG_NESTED, timeout=0.0005)
        assert response.outcome == "timeout"
        assert "deadline" in response.error

    def test_deadline_expires_while_queued(self, catalog):
        with QueryService(catalog, workers=1) as service:
            _slow_leader(service, 0.08)
            # Occupy the only worker, then submit with a deadline shorter
            # than the head-of-line request's execution.
            head = service.submit(PARAM_LOOKUP, params={"key": 1})
            starved = service.submit(PARAM_LOOKUP, params={"key": 2}, timeout=0.01)
            assert head.result().ok
            response = starved.result()
        assert response.outcome == "timeout"
        assert "queued" in response.error
        assert service.stats()["counters"]["timeouts"] == 1

    def test_default_timeout_applies(self, catalog):
        with QueryService(catalog, workers=1, default_timeout=0.0001) as service:
            response = service.execute(COUNT_BUG_NESTED)
        assert response.outcome == "timeout"


class TestAdmissionControl:
    def test_load_shedding_and_no_lost_requests(self, catalog):
        service = QueryService(catalog, workers=1, queue_limit=2)
        with service:
            _slow_leader(service, 0.03)
            pendings, rejected = [], 0
            for key in range(12):
                try:
                    pendings.append(service.submit(PARAM_LOOKUP, params={"key": key}))
                except RejectedError:
                    rejected += 1
            responses = [p.result(timeout=10) for p in pendings]
        assert rejected > 0
        # Every admitted request got a response.
        assert len(responses) == len(pendings)
        assert all(r.ok for r in responses)
        stats = service.stats()
        assert stats["counters"]["shed"] == rejected
        assert stats["counters"]["admitted"] == len(pendings)
        assert stats["counters"]["submitted"] == 12
        assert stats["counters"]["completed"] == len(pendings)

    def test_serve_all_turns_sheds_into_responses(self, catalog):
        service = QueryService(catalog, workers=1, queue_limit=1)
        with service:
            _slow_leader(service, 0.02)
            batch = [
                QueryRequest(PARAM_LOOKUP, params={"key": k}) for k in range(10)
            ]
            responses = service.serve_all(batch)
        assert len(responses) == len(batch)
        outcomes = {r.outcome for r in responses}
        assert "rejected" in outcomes and "ok" in outcomes
        # Order is preserved: response i answers request i.
        for request, response in zip(batch, responses):
            if response.outcome != "rejected":
                assert response.request_id == request.request_id


class TestVersionRaceRetry:
    def _racy_leader(self, service, races):
        """Mutate the catalog mid-flight for the first *races* executions."""
        original = service._execute_leader
        state = {"calls": 0}

        def wrapped(pq, version):
            state["calls"] += 1
            if state["calls"] <= races:
                service.catalog.table("S").bump_version()
            return original(pq, version)

        service._execute_leader = wrapped
        return state

    def test_lost_race_retries_and_succeeds(self, catalog):
        oracle = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        with QueryService(catalog, workers=1, backoff_base=0.0001) as service:
            self._racy_leader(service, races=2)
            response = service.execute(COUNT_BUG_NESTED)
        assert response.ok
        assert response.attempts == 3
        assert response.value == oracle
        assert response.catalog_version == catalog.version
        assert service.stats()["counters"]["retries"] == 2

    def test_retries_exhausted_is_an_error_response(self, catalog):
        with QueryService(
            catalog, workers=1, max_attempts=3, backoff_base=0.0001
        ) as service:
            self._racy_leader(service, races=100)
            response = service.execute(COUNT_BUG_NESTED)
        assert response.outcome == "error"
        assert "version moved" in response.error
        assert response.attempts == 3
        assert service.stats()["counters"]["version_race_failures"] == 1


class TestObservability:
    def test_responses_carry_trace_ids_and_rewrite_kinds(self, catalog):
        with QueryService(catalog, workers=1) as service:
            first = service.execute(COUNT_BUG_NESTED)
            second = service.execute(COUNT_BUG_NESTED)  # result-cache hit
        assert first.trace_id and second.trace_id
        assert first.trace_id != second.trace_id
        assert first.rewrite_kinds == ("nestjoin",)
        assert second.rewrite_kinds == ()  # served without executing
        assert first.to_dict()["rewrite_kinds"] == ["nestjoin"]

    def test_rewrite_kind_labeled_counter_counts_leaders_once(self, catalog):
        with QueryService(catalog, workers=1) as service:
            for _ in range(3):
                service.execute(COUNT_BUG_NESTED)
            stats = service.stats()
        # One leader execution despite three requests: hits don't count.
        assert stats["labeled"]["queries_by_rewrite"] == {"nestjoin": 1}

    def test_slow_query_log_keeps_n_slowest(self, catalog):
        with QueryService(catalog, workers=1, slow_query_capacity=2) as service:
            for key in range(5):
                service.execute(PARAM_LOOKUP, params={"key": key})
            slow = service.stats()["slow_queries"]
        assert len(slow["slowest"]) == 2
        totals = [entry["total_seconds"] for entry in slow["slowest"]]
        assert totals == sorted(totals, reverse=True)
        entry = slow["slowest"][0]
        assert entry["outcome"] == "ok"
        assert entry["trace_id"].startswith("t")
        assert entry["events"], "expected service-phase trace events"
        assert "prepare_trace" in entry  # embedded rewrite-decision trace

    def test_timeouts_and_rejections_are_always_captured(self, catalog):
        with QueryService(catalog, workers=1, queue_limit=1) as service:
            _slow_leader(service, 0.05)
            head = service.submit(PARAM_LOOKUP, params={"key": 1})
            # Let the worker dequeue the head so the one-slot queue is free.
            deadline = time.monotonic() + 1.0
            while service._queue.qsize() and time.monotonic() < deadline:
                time.sleep(0.001)
            backlog = service.submit(PARAM_LOOKUP, params={"key": 2}, timeout=0.001)
            shed = []
            # Saturate the one-slot queue so a submit is rejected.
            for key in range(3, 30):
                try:
                    shed.append(service.submit(PARAM_LOOKUP, params={"key": key}))
                except RejectedError:
                    break
            else:
                pytest.fail("queue never saturated")
            head.result()
            for pending in shed:
                pending.result()
            backlog.result()
            failures = service.stats()["slow_queries"]["failures"]
        outcomes = {entry["outcome"] for entry in failures}
        assert "rejected" in outcomes
        assert "timeout" in outcomes
        rejected = [e for e in failures if e["outcome"] == "rejected"]
        assert all("queue at capacity" in e["error"] for e in rejected)

    def test_slow_entries_are_json_serializable(self, catalog):
        import json

        with QueryService(catalog, workers=1) as service:
            service.execute(COUNT_BUG_NESTED)
            stats = service.stats()
        json.dumps(stats["slow_queries"])
