"""Smoke-test cache memory accounting end to end (``make cache-smoke``).

Starts a real :class:`QueryService` over the mixed workload catalog,
warms all three cache layers — plan, build, result — then validates the
three accounting surfaces:

1. ``GET /caches`` reports every registered cache with nonzero bytes and
   top entries that carry identity (kind/uid/version/keys for the build
   cache, the query text for plan and result entries);
2. the ``/metrics`` scrape carries the ``repro_cache_bytes`` /
   ``repro_cache_evictions_total`` families and parses under the strict
   validator;
3. re-serving the workload under a deliberately tiny byte budget
   triggers budget evictions (counter + ``cache_evict`` events +
   memory-pressure counter) while every response still matches the
   unbudgeted run.

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import json
import sys
import urllib.request


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.stderr.write(f"cache-smoke FAILED: {message}\n")
        sys.exit(1)


def main() -> None:
    from repro.core.log import clear_events, events_snapshot
    from repro.core.pipeline import set_plan_cache_budget
    from repro.engine.cache import set_build_cache_budget
    from repro.server.exposition import parse_prometheus, serve_metrics
    from repro.server.service import QueryService
    from repro.server.workload import make_requests, mixed_catalog

    catalog = mixed_catalog(seed=13, n_left=60, n_right=240, n_chain=12)
    requests = make_requests(150, seed=13)

    # -- phase 1: warm every layer, scrape both surfaces -------------------
    with QueryService(catalog, workers=4, queue_limit=256) as service:
        responses = service.serve_all(requests)
        expect(
            all(r.error is None for r in responses),
            "workload produced request errors",
        )
        with serve_metrics(service) as server:
            with urllib.request.urlopen(f"{server.url}/caches", timeout=5) as resp:
                expect(resp.status == 200, f"/caches returned {resp.status}")
                snap = json.loads(resp.read())
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as resp:
                text = resp.read().decode("utf-8")

    caches = snap["caches"]
    for name in ("plan", "build", "result"):
        expect(name in caches, f"cache {name!r} not registered")
        expect(
            caches[name].get("bytes", 0) > 0,
            f"cache {name!r} reports zero bytes after warming",
        )
    expect(snap["total_bytes"] >= sum(c["bytes"] for c in caches.values()) > 0,
           "total_bytes inconsistent")

    build_top = caches["build"]["top_entries"]
    expect(bool(build_top), "build cache has no top entries")
    expect(
        all("kind" in e and "uid" in e and "version" in e and "keys" in e
            for e in build_top),
        f"build top entries lack identity: {build_top}",
    )
    plan_top = caches["plan"]["top_entries"]
    expect(
        bool(plan_top) and "query" in plan_top[0]["key"],
        f"plan top entries lack the query text: {plan_top}",
    )
    result_top = caches["result"]["top_entries"]
    expect(
        bool(result_top) and "catalog_version" in result_top[0]["key"],
        f"result top entries lack identity: {result_top}",
    )

    samples = parse_prometheus(text)  # raises ValueError on malformed output
    byte_caches = {
        dict(key[1]).get("cache")
        for key in samples
        if key[0] == "repro_cache_bytes"
    }
    expect(
        {"plan", "build", "result"} <= byte_caches,
        f"cache_bytes family incomplete: {sorted(byte_caches)}",
    )
    expect(
        any(key[0] == "repro_cache_evictions_total" for key in samples)
        or caches["build"]["evictions"] == 0,
        "evictions happened but no cache_evictions family rendered",
    )

    # -- phase 2: tiny budget, identical results, visible pressure ---------
    baseline = {r.request_id: r.value for r in responses}
    clear_events()
    try:
        with QueryService(
            catalog, workers=4, queue_limit=256, cache_budget_mb=0.002
        ) as squeezed:
            squeezed_responses = squeezed.serve_all(requests)
            expect(
                all(r.error is None for r in squeezed_responses),
                "budgeted workload produced request errors",
            )
            for r in squeezed_responses:
                expect(
                    r.value == baseline[r.request_id],
                    f"budgeted result diverged for {r.request_id}",
                )
            squeezed_caches = squeezed.caches()["caches"]
    finally:
        set_plan_cache_budget(None)
        set_build_cache_budget(None)

    budget_evictions = sum(
        c.get("evictions_by_reason", {}).get("budget", 0)
        for c in squeezed_caches.values()
    )
    pressure = sum(c.get("memory_pressure", 0) for c in squeezed_caches.values())
    events = events_snapshot(events=["cache_evict"])
    expect(budget_evictions > 0, "tiny budget triggered no budget evictions")
    expect(pressure > 0, "memory-pressure counters never moved")
    expect(bool(events), "no structured cache_evict events recorded")
    expect(
        events[0].get("reason") == "budget" and events[0].get("bytes", 0) > 0,
        f"malformed cache_evict event: {events[0]}",
    )

    print(
        f"cache-smoke ok: {len(caches)} caches, "
        f"{snap['total_bytes']} bytes warmed; under a 2KiB budget: "
        f"{budget_evictions} budget evictions, {len(events)} cache_evict "
        f"events, results identical across {len(requests)} requests"
    )


if __name__ == "__main__":
    main()
