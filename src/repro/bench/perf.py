"""The schema-stable perf report behind the regression gate.

``collect_perf`` times every workload query of :mod:`repro.workloads.queries`
over the seeded mixed catalog and emits a machine-diffable report:
per-benchmark throughput and latency percentiles, plus the plan-quality
(q-error) summary from one analyzed run per query. The report carries a
``schema_version`` so the gate (``scripts/perf_gate.py``) can refuse to
compare reports that don't speak the same schema, and every future PR
extends the ``BENCH_report.json`` trajectory against the committed
``BENCH_baseline.json`` instead of leaving it empty.

The numbers are wall-clock and therefore machine-dependent; the gate's
``--shape-only`` mode checks schema and benchmark coverage without
comparing timings — that is what shared CI runners use, while local runs
compare throughput with a tolerance. See docs/benchmarking.md.
"""

from __future__ import annotations

import time

from repro.core.log import clear_events, emit_event
from repro.core.pipeline import clear_plan_cache, prepared
from repro.engine.cache import clear_build_cache, set_accounting
from repro.engine.cancel import CancelToken, cancel_scope
from repro.engine.feedback import feedback_entries, q_error
from repro.server.metrics import percentile
from repro.server.registry import ActiveQueryRegistry
from repro.server.workload import mixed_catalog
from repro.workloads import queries as workload_queries

__all__ = [
    "SCHEMA_VERSION",
    "PERF_QUERIES",
    "collect_perf",
    "introspection_overhead",
    "accounting_overhead",
]

#: Bump on any structural change to the report dict; the gate refuses to
#: diff reports with mismatched versions.
#: v4: report-level ``introspection`` section — ``overhead_pct`` measures
#: the cost of live introspection (registry progress counters piggybacked
#: on cancellation polls, plus admission/completion events in the
#: structured log) against the same workload with a bare cancel token.
#: The gate fails when the overhead exceeds its budget (default 5%).
#: v5: report-level ``caches`` section — ``accounting_overhead_pct``
#: measures the cost of cache byte accounting (the per-insert deep-sizing
#: pass of :mod:`repro.engine.memsize`) over a serving lifecycle: one
#: cold pass that rebuilds and sizes every artifact, then warm re-serves
#: until the next invalidation. Gated like introspection (default 5%).
#: v6: one executor — the per-benchmark ``row_throughput_qps``,
#: ``batch_speedup``, ``parallel_throughput_qps`` and ``parallel_speedup``
#: of v2/v3 and ``config["parts"]`` are gone with the modes they timed.
SCHEMA_VERSION = 6

#: name → query text: every named workload query, in declaration order.
PERF_QUERIES: dict[str, str] = {
    name.lower(): getattr(workload_queries, name) for name in workload_queries.__all__
}


def _latency_summary(samples_ms: list[float]) -> dict:
    return {
        "mean": sum(samples_ms) / len(samples_ms) if samples_ms else 0.0,
        "p50": percentile(samples_ms, 50),
        "p95": percentile(samples_ms, 95),
        "p99": percentile(samples_ms, 99),
        "max": max(samples_ms) if samples_ms else 0.0,
    }


def _robust_throughput_qps(samples_ms: list[float]) -> float:
    """Queries/second from the fastest half of the timed runs.

    Shared machines show 1.5x run-to-run swings in mean wall-clock; the
    fastest samples approximate the machine's unloaded speed (the same
    reasoning as ``time_best`` in :mod:`repro.bench.harness`) and keep
    the regression gate's tolerance meaningful.
    """
    if not samples_ms:
        return 0.0
    fastest = sorted(samples_ms)[: max(1, len(samples_ms) // 2)]
    return len(fastest) * 1e3 / sum(fastest)


def introspection_overhead(
    seed: int = 0,
    n_left: int = 800,
    n_right: int = 4800,
    n_chain: int = 160,
    sweeps: int = 32,
) -> dict:
    """Cost of live introspection over whole-workload sweeps.

    Times interleaved sweeps of every workload query in two
    configurations and reports the relative slowdown:

    * **off** — a bare :class:`~repro.engine.cancel.CancelToken` in scope
      (the pre-introspection baseline: cancellation polls fire but credit
      no progress sink);
    * **on** — the full per-request introspection path the query service
      takes: an :class:`~repro.server.registry.ActiveQueryRegistry` entry
      whose progress counter every poll bumps, plus ``admit``/``complete``
      structured events per query.

    The catalog defaults to 4x the perf catalog: introspection cost is a
    few microseconds of fixed work per query plus one counter bump per
    poll, so against sub-millisecond queries the percentage is dominated
    by scheduler noise, while multi-millisecond sweeps put the signal
    well above it. Sweeps interleave (off, on, off, on, ...) so clock
    drift hits both sides equally, the cyclic GC is paused during timing
    (collections landing inside a sweep are the largest noise spikes),
    and each side's *minimum* feeds the ratio — the classic
    noise-rejecting estimator (``timeit`` uses it too): interference only
    ever adds time, so the fastest sweep best approximates the unloaded
    cost. ``overhead_pct`` may come out slightly negative in the noise
    floor; the gate only bounds it from above.
    """
    import gc

    catalog = mixed_catalog(seed=seed, n_left=n_left, n_right=n_right, n_chain=n_chain)
    prepared_queries = {
        name: prepared(text, catalog) for name, text in PERF_QUERIES.items()
    }
    for pq in prepared_queries.values():  # warm plans, builds, caches
        pq.execute(catalog)

    def sweep_off() -> float:
        start = time.perf_counter()
        for pq in prepared_queries.values():
            with cancel_scope(CancelToken(None)):
                pq.execute(catalog)
        return time.perf_counter() - start

    def sweep_on() -> float:
        registry = ActiveQueryRegistry()
        start = time.perf_counter()
        for i, (name, pq) in enumerate(prepared_queries.items()):
            token = CancelToken(None)
            query_id = f"bench{i:04d}"
            registry.register(query_id, name, token=token)
            emit_event("admit", query_id=query_id, query=name)
            with cancel_scope(token):
                pq.execute(catalog)
            registry.finish(query_id, "ok")
            emit_event("complete", query_id=query_id, outcome="ok")
        return time.perf_counter() - start

    off_s: list[float] = []
    on_s: list[float] = []
    sweep_off(), sweep_on()  # warm both paths before timing
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(sweeps):
            off_s.append(sweep_off())
            on_s.append(sweep_on())
    finally:
        if gc_was_enabled:
            gc.enable()
        clear_events()  # the bench must not pollute a live event ring

    off_best, on_best = min(off_s), min(on_s)
    return {
        "sweeps": sweeps,
        "queries_per_sweep": len(prepared_queries),
        "baseline_sweep_ms": off_best * 1e3,
        "instrumented_sweep_ms": on_best * 1e3,
        "overhead_pct": (on_best - off_best) / off_best * 100.0 if off_best else 0.0,
    }


def accounting_overhead(
    seed: int = 0,
    n_left: int = 400,
    n_right: int = 2400,
    n_chain: int = 80,
    sweeps: int = 24,
    serves_per_sweep: int = 10,
) -> dict:
    """Cost of cache byte accounting over a serving lifecycle.

    Each sweep models the window between catalog mutations — the unit of
    work the caches amortize over: the build cache is cleared, then the
    whole workload executes ``serves_per_sweep`` times, so every
    artifact is rebuilt (and, with accounting on, deep-sized) exactly
    once and then re-served warm. Sweeps run interleaved with
    ``REPRO_CACHE_ACCOUNTING`` semantics toggled via
    :func:`repro.engine.cache.set_accounting` — **off** skips the
    per-insert sizing pass entirely (the pre-accounting baseline),
    **on** is the shipped default. Clock-drift, GC, and noise handling
    match :func:`introspection_overhead`: interleaved sides, cyclic GC
    paused, minimum-sweep estimator, and a possibly slightly negative
    result in the noise floor (the gate bounds it from above only).

    Sizing cost is per *insert*, not per execution, so the measured
    percentage scales inversely with ``serves_per_sweep``; 10 is
    conservative for the serving workloads the engine targets (the
    result-cache coalescing in front of it makes real re-execution
    windows longer, not shorter).
    """
    import gc

    catalog = mixed_catalog(seed=seed, n_left=n_left, n_right=n_right, n_chain=n_chain)
    prepared_queries = {
        name: prepared(text, catalog) for name, text in PERF_QUERIES.items()
    }
    for pq in prepared_queries.values():  # warm plans and first builds
        pq.execute(catalog)

    def sweep(accounting: bool) -> float:
        set_accounting(accounting)
        clear_build_cache()
        start = time.perf_counter()
        for _ in range(serves_per_sweep):
            for pq in prepared_queries.values():
                pq.execute(catalog)
        return time.perf_counter() - start

    off_s: list[float] = []
    on_s: list[float] = []
    sweep(False), sweep(True)  # warm both paths before timing
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(sweeps):
            off_s.append(sweep(False))
            on_s.append(sweep(True))
    finally:
        if gc_was_enabled:
            gc.enable()
        set_accounting(True)
        clear_build_cache()

    off_best, on_best = min(off_s), min(on_s)
    return {
        "sweeps": sweeps,
        "serves_per_sweep": serves_per_sweep,
        "queries_per_serve": len(prepared_queries),
        "baseline_sweep_ms": off_best * 1e3,
        "accounted_sweep_ms": on_best * 1e3,
        "accounting_overhead_pct": (
            (on_best - off_best) / off_best * 100.0 if off_best else 0.0
        ),
    }


def collect_perf(
    repeats: int = 30,
    seed: int = 0,
    n_left: int = 200,
    n_right: int = 1200,
    n_chain: int = 40,
) -> dict:
    """Time every workload query and report throughput, latency, and q-error.

    Per query: one cold preparation (plan + build caches cleared up
    front), one warm-up execution, then *repeats* timed executions —
    the steady serving state the system optimizes for. One additional
    analyzed execution collects per-operator cardinality feedback; the
    report keeps each query's worst q-error and the whole workload's
    q-error distribution.
    """
    clear_plan_cache()
    clear_build_cache()
    catalog = mixed_catalog(seed=seed, n_left=n_left, n_right=n_right, n_chain=n_chain)
    benchmarks: dict[str, dict] = {}
    all_q: list[float] = []
    for name, text in PERF_QUERIES.items():
        pq = prepared(text, catalog)
        rows = len(pq.execute(catalog))  # warm-up; also the result size
        samples_ms: list[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            pq.execute(catalog)
            samples_ms.append((time.perf_counter() - start) * 1e3)
        entries = feedback_entries(pq.analyze(catalog)) if pq.plan is not None else []
        qs = [e.q for e in entries]
        all_q.extend(qs)
        benchmarks[name] = {
            "runs": repeats,
            "rows": rows,
            "throughput_qps": _robust_throughput_qps(samples_ms),
            "latency_ms": _latency_summary(samples_ms),
            "qerror_max": max(qs, default=1.0),
            "rewrite_kinds": list(pq.rewrite_kinds()),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "repeats": repeats,
            "seed": seed,
            "n_left": n_left,
            "n_right": n_right,
            "n_chain": n_chain,
        },
        "benchmarks": benchmarks,
        "introspection": introspection_overhead(
            seed=seed, n_left=4 * n_left, n_right=4 * n_right, n_chain=4 * n_chain
        ),
        "caches": accounting_overhead(
            seed=seed, n_left=2 * n_left, n_right=2 * n_right, n_chain=2 * n_chain
        ),
        "qerror": {
            "count": len(all_q),
            "mean": sum(all_q) / len(all_q) if all_q else 1.0,
            "max": max(all_q, default=1.0),
            "p50": percentile(all_q, 50) if all_q else 1.0,
            "p95": percentile(all_q, 95) if all_q else 1.0,
        },
    }


def _self_check() -> None:  # pragma: no cover - import-time invariant guard
    # Every q-error the report aggregates obeys the feedback contract.
    assert q_error(1.0, 1.0) == 1.0


_self_check()
