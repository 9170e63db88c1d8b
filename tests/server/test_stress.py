"""Thread-stress tests: many clients, shared caches, a mutating catalog.

Everything here carries the ``thread_stress`` marker (CI runs the module
both in the normal suite and as a dedicated ``-m thread_stress`` step).
The invariants checked are the service's contract:

* every response to the full mixed workload equals the single-threaded
  oracle (``run_query`` on the interpreter engine);
* under concurrent mutation, every ``ok`` response is *version-stable* —
  it equals the oracle at one of the catalog states that actually
  existed, never a blend of two.
"""

import threading
import time

import pytest

from repro.core.pipeline import clear_plan_cache, prepared, run_query
from repro.engine.cache import clear_build_cache
from repro.server import QueryService
from repro.server.workload import MIXED_QUERIES, mixed_catalog
from repro.workloads import COUNT_BUG_NESTED, SECTION8_QUERY

pytestmark = pytest.mark.thread_stress


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_plan_cache()
    clear_build_cache()
    yield


class TestConcurrentOracleAgreement:
    def test_many_clients_full_workload_static_catalog(self):
        catalog = mixed_catalog(seed=5, n_left=80, n_right=400, n_chain=25)
        oracle = {
            q: run_query(q, catalog, engine="interpret").value for q in MIXED_QUERIES
        }
        mismatches = []
        failures = []

        def client(rounds):
            for _ in range(rounds):
                for query in MIXED_QUERIES:
                    response = service.execute(query)
                    if not response.ok:
                        failures.append(response.error)
                    elif response.value != oracle[query]:
                        mismatches.append(query)

        with QueryService(catalog, workers=8, queue_limit=0) as service:
            threads = [
                threading.Thread(target=client, args=(3,)) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = service.stats()

        assert failures == []
        assert mismatches == []
        total = 8 * 3 * len(MIXED_QUERIES)
        assert stats["counters"]["completed"] == total
        assert stats["counters"]["ok"] == total
        # Repetition must actually hit the serving caches.
        assert stats["counters"]["result_hits"] + stats["counters"]["result_coalesced"] > 0

    def test_mutating_catalog_responses_are_version_stable(self):
        catalog = mixed_catalog(seed=6, n_left=60, n_right=250, n_chain=20)
        table = catalog.table("S")
        rows_a = list(table.rows)
        # State B drops every other S row, halving each join key's fanout
        # (a prefix slice would keep all joining rows and leave COUNT
        # results unchanged).
        rows_b = rows_a[::2]

        oracle_a = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        table.replace_rows(rows_b)
        oracle_b = run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value
        table.replace_rows(rows_a)
        static_oracle = run_query(SECTION8_QUERY, catalog, engine="interpret").value
        assert oracle_a != oracle_b  # the mutation must be observable

        stop = threading.Event()

        def mutator():
            flip = False
            while not stop.is_set():
                table.replace_rows(rows_b if flip else rows_a)
                flip = not flip
                time.sleep(0.002)

        blends = []
        failures = []
        ok_count = [0]

        def client():
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline:
                for query, allowed in (
                    (COUNT_BUG_NESTED, (oracle_a, oracle_b)),
                    (SECTION8_QUERY, (static_oracle,)),
                ):
                    response = service.execute(query)
                    if response.outcome == "error":
                        # Only a lost version race may fail, never anything else.
                        if "version moved" not in (response.error or ""):
                            failures.append(response.error)
                    elif response.ok:
                        ok_count[0] += 1
                        if response.value not in allowed:
                            blends.append(query)
                    else:
                        failures.append(response.outcome)

        with QueryService(
            catalog, workers=6, queue_limit=0, max_attempts=8, backoff_base=0.0005
        ) as service:
            writer = threading.Thread(target=mutator)
            clients = [threading.Thread(target=client) for _ in range(6)]
            writer.start()
            for t in clients:
                t.start()
            for t in clients:
                t.join()
            stop.set()
            writer.join()

        assert failures == []
        assert blends == []  # no response ever mixed two catalog versions
        assert ok_count[0] > 0


class TestPreparedPlanCacheUnderContention:
    def test_concurrent_first_preparation_yields_one_instance(self):
        catalog = mixed_catalog(seed=7, n_left=40, n_right=150, n_chain=15)
        barrier = threading.Barrier(8)
        instances = []

        def prepare_once():
            barrier.wait()
            instances.append(prepared(COUNT_BUG_NESTED, catalog))

        threads = [threading.Thread(target=prepare_once) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(instances) == 8
        assert len({id(pq) for pq in instances}) == 1


class TestParameterBindingsUnderContention:
    def test_one_shared_plan_each_thread_sees_only_its_own_binding(self):
        """Bindings are thread-local: threads executing one cached plan with
        different values, switching as often as the interpreter allows,
        never read each other's parameters."""
        import sys

        catalog = mixed_catalog(seed=3, n_left=60, n_right=120, n_chain=10)
        text = "SELECT r.a FROM R r WHERE r.a = $key OR r.c = $key"
        expected = {
            key: run_query(text, catalog, engine="interpret", params={"key": key}).value
            for key in range(16)
        }
        wrong = []
        done = []

        def client(key):
            pq = prepared(text, catalog, params={"key": key})
            for _ in range(40):
                if pq.execute(catalog, {"key": key}) != expected[key]:
                    wrong.append(key)
            done.append(key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(k,)) for k in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(16))
        assert wrong == []
