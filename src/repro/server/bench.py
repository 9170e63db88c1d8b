"""The serve-bench harness: service throughput vs sequential execution.

Runs the mixed workload twice over the same (warmed) catalog:

1. **sequential baseline** — one thread executing every request
   back-to-back through the prepared layer (plan + build caches warm, no
   result reuse): the PR-1 state of the art;
2. **service** — the same requests submitted to a :class:`~repro.server.service.QueryService`
   with N workers, admission control, and the result cache.

Every ``ok`` response is checked against the single-threaded oracle
(:func:`repro.core.pipeline.run_query` on the interpreter engine), and
the report counts lost requests (admitted but unanswered — must be zero
by construction of :meth:`~repro.server.service.QueryService.serve_all`).

Used by both ``repro serve-bench`` (CLI) and
``benchmarks/bench_serving.py`` (shape assertions in CI).
"""

from __future__ import annotations

import time

from repro.core.pipeline import clear_plan_cache, prepared, run_query
from repro.core.trace import QueryTrace, trace_scope
from repro.engine.cache import clear_build_cache
from repro.server.service import QueryService
from repro.server.workload import make_requests, mixed_catalog

__all__ = ["run_serve_bench"]


def run_serve_bench(
    workers: int = 8,
    requests: int = 400,
    seed: int = 0,
    queue_limit: int = 0,
    timeout: float | None = None,
    check_oracle: bool = True,
    n_left: int = 200,
    n_right: int = 1200,
    n_chain: int = 40,
    cache_budget_mb: float | None = None,
) -> dict:
    """Run the mixed workload sequentially and through the service.

    Returns a JSON-serializable report with throughputs, the speedup,
    latency percentiles, outcome counts, oracle mismatches, lost
    requests, and the service's cache/metric snapshot. ``queue_limit=0``
    means an unbounded admission queue (no shedding — the benchmark's
    accounting mode); pass a positive limit to observe load shedding.
    """
    clear_plan_cache()
    clear_build_cache()
    catalog = mixed_catalog(seed=seed, n_left=n_left, n_right=n_right, n_chain=n_chain)
    batch = make_requests(requests, seed=seed, n_left=n_left, timeout=timeout)
    # A request's identity is its text plus its parameter values: one
    # parameterised text is one plan, each binding one answer.
    keys = [(r.query, tuple(sorted((r.params or {}).items()))) for r in batch]
    distinct = sorted(set(keys))

    oracle: dict[tuple, frozenset] = {}
    if check_oracle:
        for text, params in distinct:
            oracle[text, params] = run_query(
                text, catalog, engine="interpret", params=dict(params)
            ).value

    def run(text: str, params: tuple) -> frozenset:
        bound = dict(params)
        return prepared(text, catalog, params=bound).execute(catalog, bound)

    # Warm the plan and build caches once so both contenders start from
    # the same PR-1 steady state and the comparison isolates the service
    # layer (scheduling + result reuse + coalescing).
    for key in distinct:
        run(*key)

    start = time.perf_counter()
    sequential_values = [run(*key) for key in keys]
    sequential_seconds = time.perf_counter() - start

    # Tracing overhead: the same warm sequential loop with an ambient
    # trace installed per request — what a serving deployment pays to keep
    # tracing on. With caches warm the emitters mostly never fire, so this
    # measures the fixed per-request cost (trace object + scope install).
    start = time.perf_counter()
    for key in keys:
        with trace_scope(QueryTrace(query=key[0])):
            run(*key)
    traced_seconds = time.perf_counter() - start

    service = QueryService(
        catalog,
        workers=workers,
        queue_limit=queue_limit,
        default_timeout=timeout,
        cache_budget_mb=cache_budget_mb,
    )
    with service:
        start = time.perf_counter()
        responses = service.serve_all(batch)
        service_seconds = time.perf_counter() - start
        stats = service.stats()

    outcomes: dict[str, int] = {}
    for response in responses:
        outcomes[response.outcome] = outcomes.get(response.outcome, 0) + 1
    mismatches = 0
    for key, value, response in zip(keys, sequential_values, responses):
        if not response.ok:
            continue
        expected = oracle.get(key, value)
        if response.value != expected:
            mismatches += 1
    lost = len(batch) - len(responses)

    latency = stats["histograms"].get("latency_ms", {})
    return {
        "workers": workers,
        "requests": len(batch),
        "distinct_queries": len(distinct),
        "sequential_seconds": sequential_seconds,
        "service_seconds": service_seconds,
        "sequential_rps": len(batch) / sequential_seconds if sequential_seconds else 0.0,
        "service_rps": len(batch) / service_seconds if service_seconds else 0.0,
        "speedup": sequential_seconds / service_seconds if service_seconds else 0.0,
        "outcomes": outcomes,
        "oracle_checked": check_oracle,
        "oracle_mismatches": mismatches,
        "lost_requests": lost,
        "latency_ms": latency,
        "rewrite_kinds": stats["labeled"].get("queries_by_rewrite", {}),
        "tracing": {
            "baseline_seconds": sequential_seconds,
            "traced_seconds": traced_seconds,
            "overhead_pct": (
                (traced_seconds - sequential_seconds) / sequential_seconds * 100.0
                if sequential_seconds
                else 0.0
            ),
        },
        "stats": stats,
    }
