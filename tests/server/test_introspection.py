"""Live introspection through the service: events, registry, admin cancel.

Deterministic behaviors are forced through the ``_execute_leader`` seam
(wrapped per-instance to hold a query mid-flight or inject a cancelled
leader); the sampler-thread progress tests at the bottom run the real
workload under the ``thread_stress`` marker.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.core.log import clear_events
from repro.core.pipeline import clear_plan_cache
from repro.engine.cache import clear_build_cache
from repro.engine.cancel import current_token
from repro.server import QueryRequest, QueryService
from repro.server.exposition import serve_metrics
from repro.server.workload import MIXED_QUERIES, mixed_catalog
from repro.workloads import COUNT_BUG_NESTED


@pytest.fixture(autouse=True)
def fresh_state():
    clear_plan_cache()
    clear_build_cache()
    clear_events()
    yield
    clear_events()


@pytest.fixture
def catalog():
    return mixed_catalog(seed=9, n_left=60, n_right=240, n_chain=12)


def hold_leader(service, entered: threading.Event, release: threading.Event):
    """Wrap the leader seam so the first execution parks mid-flight,
    polling its token — an admin cancel must be able to stop it."""
    original = service._execute_leader
    state = {"first": True}

    def wrapped(pq, version):
        if state["first"]:
            state["first"] = False
            entered.set()
            token = current_token()
            while not release.is_set():
                token.check()
                time.sleep(0.002)
        return original(pq, version)

    service._execute_leader = wrapped


class TestLifecycleEvents:
    def test_admit_and_complete_are_correlated(self, catalog):
        with QueryService(catalog, workers=1) as service:
            request = QueryRequest(COUNT_BUG_NESTED)
            response = service.submit(request).result()
            events = [
                e
                for e in service.stats()["events"]
                if e.get("query_id") == request.request_id
            ]
        assert response.ok
        kinds = [e["event"] for e in events]
        assert kinds == ["admit", "complete"]
        admit, complete = events
        assert admit["query"] == COUNT_BUG_NESTED
        assert "queue_depth" in admit  # admit predates the trace
        assert complete["trace_id"] == response.trace_id
        assert complete["outcome"] == "ok"
        assert complete["exec_mode"] == response.exec_mode
        assert complete["seconds"] >= 0
        assert complete["rows_processed"] >= 0

    def test_rejection_emits_warning_event(self, catalog):
        service = QueryService(catalog, workers=1)
        service.start()
        service.stop()
        with pytest.raises(Exception):
            service.execute(COUNT_BUG_NESTED)
        rejects = [
            e for e in service.stats()["events"] if e["event"] == "reject"
        ]
        assert rejects and rejects[-1]["level"] == "warning"

    def test_stats_carries_introspection_sections(self, catalog):
        with QueryService(catalog, workers=1) as service:
            service.execute(COUNT_BUG_NESTED)
            snap = service.stats()
        assert snap["in_flight"] == 0
        assert snap["active_queries"] == []
        assert any(e["event"] == "complete" for e in snap["events"])


class TestAdminCancel:
    def test_registry_cancel_produces_cancelled_outcome(self, catalog):
        entered, release = threading.Event(), threading.Event()
        with QueryService(catalog, workers=1) as service:
            hold_leader(service, entered, release)
            request = QueryRequest(COUNT_BUG_NESTED, timeout=30.0)
            future = service.submit(request)
            assert entered.wait(5.0)
            active = service.registry.snapshot()["active"]
            assert [e["query_id"] for e in active] == [request.request_id]
            assert active[0]["state"] == "running"
            assert service.registry.cancel(request.request_id)
            response = future.result(timeout=5.0)
            stats = service.stats()
        assert response.outcome == "cancelled"
        assert stats["counters"]["cancelled"] == 1
        assert stats["counters"]["timeouts"] == 0
        kinds = [
            e["event"]
            for e in stats["events"]
            if e.get("query_id") == request.request_id
        ]
        assert kinds == ["admit", "cancel"]
        # The failure ring keeps the cancelled request, correlated by id.
        failures = stats["slow_queries"]["failures"]
        assert any(
            f["query_id"] == request.request_id and f["outcome"] == "cancelled"
            for f in failures
        )

    def test_cancelled_query_lands_in_recent_pane(self, catalog):
        entered, release = threading.Event(), threading.Event()
        with QueryService(catalog, workers=1) as service:
            hold_leader(service, entered, release)
            request = QueryRequest(COUNT_BUG_NESTED, timeout=30.0)
            future = service.submit(request)
            assert entered.wait(5.0)
            service.registry.cancel(request.request_id)
            future.result(timeout=5.0)
            recent = service.registry.snapshot()["recent"]
        entry = next(e for e in recent if e["query_id"] == request.request_id)
        assert entry["state"] == "cancelled"
        assert entry["progress"] < 1.0


class TestAdminEndpoint:
    def test_queries_and_cancel_over_http(self, catalog):
        entered, release = threading.Event(), threading.Event()
        with QueryService(catalog, workers=1) as service:
            hold_leader(service, entered, release)
            with serve_metrics(service) as server:
                request = QueryRequest(COUNT_BUG_NESTED, timeout=30.0)
                future = service.submit(request)
                assert entered.wait(5.0)

                with urllib.request.urlopen(f"{server.url}/queries", timeout=5) as resp:
                    assert resp.status == 200
                    snapshot = json.loads(resp.read())
                assert [e["query_id"] for e in snapshot["active"]] == [
                    request.request_id
                ]

                health = json.loads(
                    urllib.request.urlopen(f"{server.url}/healthz", timeout=5).read()
                )
                assert health["status"] == "ok"
                assert health["uptime_seconds"] >= 0
                assert health["in_flight"] == 1
                assert "queue_depth" in health and "workers" in health

                post = urllib.request.Request(
                    f"{server.url}/queries/{request.request_id}/cancel",
                    method="POST",
                )
                with urllib.request.urlopen(post, timeout=5) as resp:
                    assert resp.status == 200
                    body = json.loads(resp.read())
                assert body == {
                    "query_id": request.request_id,
                    "cancelled": True,
                }
                assert future.result(timeout=5.0).outcome == "cancelled"

                ghost = urllib.request.Request(
                    f"{server.url}/queries/ghost/cancel", method="POST"
                )
                with pytest.raises(urllib.error.HTTPError) as exc_info:
                    urllib.request.urlopen(ghost, timeout=5)
                assert exc_info.value.code == 404
                assert json.loads(exc_info.value.read())["cancelled"] is False

    def test_queries_404_without_registry(self, catalog):
        from repro.server.exposition import MetricsServer

        with MetricsServer(lambda: {}) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{server.url}/queries", timeout=5)
            assert exc_info.value.code == 404


class TestCoalesceLeaderCancel:
    def test_follower_survives_cancelled_leader(self, catalog):
        """A follower must not inherit its leader's admin cancel: it
        retries as the new leader, and the drop leaves a warning event."""
        entered, release = threading.Event(), threading.Event()
        with QueryService(catalog, workers=2, max_attempts=3) as service:
            original = service._execute_leader
            state = {"first": True}

            def wrapped(pq, version):
                if state["first"]:
                    state["first"] = False
                    entered.set()
                    token = current_token()
                    while not release.is_set():
                        token.check()
                        time.sleep(0.002)
                return original(pq, version)

            service._execute_leader = wrapped
            leader_req = QueryRequest(COUNT_BUG_NESTED, timeout=30.0)
            leader_future = service.submit(leader_req)
            assert entered.wait(5.0)
            follower_req = QueryRequest(COUNT_BUG_NESTED, timeout=30.0)
            follower_future = service.submit(follower_req)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                with service._inflight_lock:
                    if any(e.waiters >= 1 for e in service._inflight.values()):
                        break
                time.sleep(0.005)
            else:
                pytest.fail("follower never coalesced onto the leader")

            assert service.registry.cancel(leader_req.request_id)
            leader_resp = leader_future.result(timeout=5.0)
            follower_resp = follower_future.result(timeout=10.0)
            stats = service.stats()

        assert leader_resp.outcome == "cancelled"
        assert follower_resp.ok
        assert follower_resp.attempts >= 2  # retried as the new leader
        assert follower_resp.result_cache == "miss"
        drops = [e for e in stats["events"] if e["event"] == "coalesce_dropped"]
        assert len(drops) == 1
        assert drops[0]["level"] == "warning"
        assert drops[0]["query_id"] == leader_req.request_id
        assert drops[0]["waiters"] == 1


@pytest.mark.thread_stress
class TestProgressMonotonicity:
    def test_rows_monotone_and_progress_bounded(self):
        catalog = mixed_catalog(seed=4, n_left=400, n_right=2400, n_chain=60)
        samples: dict[str, list[tuple[int, float]]] = {}
        stop = threading.Event()

        def sampler():
            while not stop.is_set():
                for entry in service.registry.active():
                    samples.setdefault(entry.query_id, []).append(
                        (entry.rows_processed, entry.progress)
                    )
                time.sleep(0.001)

        with QueryService(catalog, workers=2) as service:
            thread = threading.Thread(target=sampler, daemon=True)
            thread.start()
            try:
                responses = service.serve_all(list(MIXED_QUERIES) * 3)
            finally:
                stop.set()
                thread.join(timeout=5.0)
            recent = service.registry.snapshot()["recent"]

        assert all(r.ok for r in responses), [r.error for r in responses]
        for query_id, seen in samples.items():
            rows = [r for r, _ in seen]
            fractions = [p for _, p in seen]
            assert rows == sorted(rows), f"{query_id}: rows_processed regressed"
            assert all(0.0 <= p < 1.0 for p in fractions), (
                f"{query_id}: mid-flight progress out of [0,1): {fractions}"
            )
        # Every ok query reaches exactly 1.0 once finished.
        assert recent, "no finished queries in the recent pane"
        assert all(e["progress"] == 1.0 for e in recent if e["state"] == "ok")
