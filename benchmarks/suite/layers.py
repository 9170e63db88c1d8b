"""Per-layer metrics: what the spans of each workload say, plus a few probes.

A metric's layer is the first part of its name (`lang.parse_ms` belongs to
`repro.lang`). Most figures come from the spans recorded around the harness's
own calls while a workload runs (`from_windows`); the probes add what no
workload exercises by itself: scale tiers, forced join algorithms, the
interpreter, row mode, the parallel executor and micro-loops over the value
model. Probes do a fixed amount of work, so counts repeat exactly.

An entry point that the system no longer has gives 0 and a line in `absent`.
"""

from __future__ import annotations

import math
import os
import statistics
import time

import adapters as sut
import workloads
from measure import geomean, median_seconds, speed
from tracing import ROOT_SPAN, self_seconds

FRONT_END = {
    "lang.parse",
    "lang.typecheck",
    "core.translate",
    "core.prepared",
    "algebra.rewrite",
    "engine.compile",
}


def _spans(window) -> dict[str, list[tuple]]:
    """Span name -> (seconds, sample class, parent's seconds or None) of each span.

    Seconds are at nominal speed, like every time the window reports.
    """
    out: dict[str, list[tuple]] = {}
    for rec in window.recordings:
        spans = rec.tracer.spans
        for name, start, end, parent, op_id in spans:
            factor = window.factor_at(end)
            above = (spans[parent][2] - spans[parent][1]) * factor if parent >= 0 else None
            out.setdefault(name, []).append(
                ((end - start) * factor, rec.cls[op_id // rec.clients], above)
            )
    return out


def _by_class(spans, name: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for seconds, cls, _above in spans.get(name, ()):
        out.setdefault(cls, []).append(seconds)
    return out


def _all(spans, name: str) -> list[float]:
    return [seconds for seconds, _cls, _above in spans.get(name, ())]


def _p50_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def _mean_of_class_medians_ms(spans, name: str) -> float:
    """Mean over the classes of each class's median: robust, and still weighted by cost."""
    medians = [statistics.median(v) for v in _by_class(spans, name).values()]
    return statistics.fmean(medians) * 1e3


def _rate(window) -> float:
    return statistics.median(window.segment_rates())


def _share_pct(window, names) -> float:
    """Self time of the spans called *names*, as a share of all operations' time.

    A share of raw seconds: both sides of it saw the same machine.
    """
    named = total = 0.0
    for rec in window.recordings:
        own = self_seconds(rec.tracer.spans)
        named += sum(seconds for name, seconds in own.items() if name in names)
        total += sum(own.values())
    return 100.0 * named / total


def from_windows(workload, untraced, traced) -> dict[str, float]:
    """The per-layer metrics that *workload*'s two windows yield."""
    name = workload.name
    out = {
        f"harness.trace_overhead_pct.{name}": 100.0 * (1.0 - _rate(traced) / _rate(untraced)),
        **_WINDOW_METRICS[name](workload, untraced, _spans(traced)),
    }
    if name in ("warm_prepared", "adhoc_cold"):
        out[f"harness.frontend_share_pct.{name}"] = _share_pct(traced, FRONT_END)
    return out


def _warm_prepared(workload, _untraced, spans) -> dict[str, float]:
    out = {
        "core.prepared_hit_ms": _p50_ms(_all(spans, "core.prepared")),
        "workloads.catalog_build_s": workload.catalog_build_s,
        "workloads.catalog_rows": float(sum(len(workload.catalog[t]) for t in workload.catalog)),
    }
    cache = sut.optional("BUILD_CACHE")
    out["engine.build_cache_bytes"] = float(cache.total_bytes) if cache is not None else 0.0
    for query, seconds in _by_class(spans, "engine.execute").items():
        out[f"engine.exec_warm_ms.{query}"] = _p50_ms(seconds)
    return out


def _adhoc_cold(workload, untraced, spans) -> dict[str, float]:
    out = {
        metric: _mean_of_class_medians_ms(spans, span)
        for metric, span in (
            ("lang.parse_ms", "lang.parse"),
            ("lang.typecheck_ms", "lang.typecheck"),
            ("core.translate_ms", "core.translate"),
            ("algebra.rewrite_ms", "algebra.rewrite"),
            ("engine.compile_ms", "engine.compile"),
        )
    }
    parse = {cls: statistics.median(v) for cls, v in _by_class(spans, "lang.parse").items()}
    chars = {name: len(text) for name, text, _catalog, _expected in workload.items}
    out["lang.parse_chars_per_s"] = sum(chars[c] for c in parse) / sum(parse.values())
    # The staged copy of the pipeline against the real `run_query`, text by text.
    staged = {cls: statistics.median(v) for cls, v in _by_class(spans, ROOT_SPAN).items()}
    whole = {cls: statistics.median(v) for cls, v in untraced.by_class().items()}
    # The median over the texts of each text's ratio: far steadier than the
    # ratio of two sums, which a few dear texts with a dozen samples decide.
    out["harness.stage_sum_vs_e2e_ratio"] = statistics.median(
        staged[c] / whole[c] for c in staged.keys() & whole.keys()
    )
    return out


def _serve_mixed(workload, _untraced, spans) -> dict[str, float]:
    handled = {"hit": [], "miss": [], "coalesced": []}
    whole = {"hit": [], "miss": [], "coalesced": []}
    plan_s = 0.0
    for source in handled:
        for seconds, cls, above in spans.get(f"server.handle.{source}", ()):
            handled[source].append(seconds)
            whole[source].append(above)
            if source == "miss":
                plan_s += workload.direct_s[cls]
    served = sum(map(len, whole.values()))
    client_s = sum(map(sum, whole.values()))
    stats = sut.load("plan_cache_stats")()
    return {
        "server.hit_ms_p50": _p50_ms(whole["hit"]),
        "server.miss_ms_p50": _p50_ms(whole["miss"]),
        "server.queue_ms_p50": _p50_ms(_all(spans, "server.queue")),
        # What the client waits beyond the worker's own handling: the
        # hand-off into the admission queue and back to the blocked client.
        "server.overhead_ms_p50": _p50_ms(
            [w - h for source in whole for w, h in zip(whole[source], handled[source])]
        ),
        "server.result_hit_ratio": len(whole["hit"]) / served,
        "server.coalesced_ratio": len(whole["coalesced"]) / served,
        "server.retries_per_op": len(_all(spans, "server.retry")) / served,
        "core.plan_cache_hit_ratio": stats.hit_rate,
        # Plan execution cannot be seen from outside the service: each miss
        # is booked at what a warm direct execution of its class takes.
        "harness.execute_share_pct.serve_mixed": 100.0 * plan_s / client_s,
    }


def _mutate_and_query(_workload, _untraced, spans) -> dict[str, float]:
    steady = {c: statistics.median(v) for c, v in _by_class(spans, "engine.execute.steady").items()}
    requery = {state: _by_class(spans, f"engine.execute.{state}") for state in ("touched", "untouched")}
    # What a query costs beyond its steady median when it is the first of its
    # kind after a mutation: recompilation and the rebuilt build sides.
    rebuild = sum(
        max(0.0, seconds - steady[cls])
        for by_class in requery.values()
        for cls, samples in by_class.items()
        if cls in steady
        for seconds in samples
    )
    mutation = sum(_all(spans, "engine.table.insert")) + sum(_all(spans, "engine.table.delete"))
    total = sum(_all(spans, ROOT_SPAN))
    stats = sut.optional("build_cache_stats")
    return {
        "engine.table_insert_ms_p50": _p50_ms(_all(spans, "engine.table.insert")),
        "engine.table_delete_ms_p50": _p50_ms(_all(spans, "engine.table.delete")),
        "engine.requery_steady_ms_p50": _p50_ms(_all(spans, "engine.execute.steady")),
        "engine.requery_after_mutation_ms_p50": _p50_ms(_all(spans, "engine.execute.touched")),
        "engine.requery_untouched_ms_p50": _p50_ms(_all(spans, "engine.execute.untouched")),
        "engine.build_cache_hit_ratio": stats().hit_rate if stats is not None else 0.0,
        "harness.mutation_share_pct.mutate_and_query": 100.0 * (mutation + rebuild) / total,
    }


_WINDOW_METRICS = {
    "warm_prepared": _warm_prepared,
    "adhoc_cold": _adhoc_cold,
    "serve_mixed": _serve_mixed,
    "mutate_and_query": _mutate_and_query,
}


# -- probes ------------------------------------------------------------------


# Probes return raw seconds; `run.py` restates their times at nominal speed.


def probe_texts(adhoc) -> dict[str, float]:
    """One pass over every ad-hoc text: what the stage spans do not show."""
    parse, pretty, prepared = sut.load("parse"), sut.load("pretty"), sut.load("prepared")
    translate, optimize = sut.load("translate_query"), sut.load("optimize_logical")
    clear_plans = sut.load("clear_plan_cache")
    kinds = dict.fromkeys(("semijoin", "antijoin", "nestjoin", "flat", "interpreted"), 0)
    pretty_s, miss_s, changed = [], [], 0

    for _name, text, catalog, _expected in adhoc.items:
        ast = parse(text)
        pretty_s.append(median_seconds(lambda: pretty(ast), 3))

        def miss():
            clear_plans()
            return prepared(text, catalog)

        miss_s.append(median_seconds(miss, 3))
        for kind in prepared(text, catalog).rewrite_kinds():
            # "nestjoin-select-clause" counts as a nest join; what is left
            # ("flat", "unnest-join") is a plan without grouping.
            named = next((k for k in kinds if k in kind), "flat")
            kinds[named] += 1
        translation = translate(ast, catalog)
        changed += translation is not None and optimize(translation.plan) != translation.plan
    out = {f"core.join_kind_count.{kind}": float(n) for kind, n in kinds.items()}
    out["lang.pretty_ms"] = statistics.fmean(pretty_s) * 1e3
    out["core.prepared_miss_ms"] = statistics.fmean(miss_s) * 1e3
    out["algebra.rewrite_changed_ratio"] = changed / len(adhoc.items)
    return out


def probe_1x(seed: int, absent: list[str]) -> dict[str, float]:
    """The paper's claim at the 1x tier: the interpreter's nested loops
    against cold unnested plans, and the three join algorithms on the
    COUNT-bug plan (nested loop takes 7 s at 4x, hence this tier)."""
    catalog = workloads.mixed_catalog(seed, **workloads.tier(1))
    run_query = sut.load("run_query")
    paper = sut.paper_queries()
    ratios = []
    for text in paper.values():
        interpreted = median_seconds(lambda: run_query(text, catalog, engine="interpret"), 1)

        def cold():
            sut.clear_caches()
            run_query(text, catalog)

        ratios.append(interpreted / median_seconds(cold, 3))
    out = {"core.unnest_speedup_geomean": geomean(ratios)}
    run_physical = sut.optional("run_physical")
    plan = sut.load("optimize_logical")(
        sut.load("translate_query")(sut.load("parse")(paper["count_bug_nested"]), catalog).plan
    )
    for algorithm in ("hash", "sort_merge", "nested_loop"):
        metric = f"engine.join_ms.{algorithm}"
        try:
            out[metric] = 1e3 * median_seconds(
                lambda: run_physical(plan, catalog, force_algorithm=algorithm), 3
            )
        except Exception as exc:  # the algorithm or the entry point is gone
            out[metric] = 0.0
            absent.append(f"{metric}: {type(exc).__name__}: {exc}")
    return out


def probe_tiers(seed: int, warm_64x: dict[str, float], absent: list[str]) -> dict[str, float]:
    """Warm medians at 4x and 16x beside the 64x ones `warm_prepared` gave:
    the log-log slope per query, cold runs at 16x, and row against batch at 4x."""
    prepared = sut.load("prepared")
    paper = sut.paper_queries()
    out: dict[str, float] = {}
    warm = {64: warm_64x}
    row_ratios = []
    for mult, repeats in ((4, 15), (16, 9)):
        catalog = workloads.mixed_catalog(seed, **workloads.tier(mult))
        warm[mult] = {}
        for name, text in paper.items():
            plan = prepared(text, catalog)

            def cold():
                sut.load("clear_build_cache")()
                plan.execute(catalog)

            cold_s = median_seconds(cold, 3)
            if mult == 16:
                out[f"engine.exec_cold_ms.{name}"] = cold_s * 1e3
            # At nominal speed, like the 64x medians they are fitted with.
            warm[mult][name] = median_seconds(lambda: plan.execute(catalog), repeats) * speed()
            if mult == 4 and row_ratios is not None:
                try:
                    row = median_seconds(lambda: plan.execute(catalog, execution="row"), repeats)
                    row_ratios.append(row * speed() / warm[mult][name])
                except (TypeError, ValueError) as exc:
                    row_ratios = None
                    absent.append(f"engine.batch_speedup_geomean: {type(exc).__name__}: {exc}")
    out["engine.batch_speedup_geomean"] = geomean(row_ratios) if row_ratios else 0.0
    tiers = sorted(warm)
    xs = [math.log(m) for m in tiers]
    for name in paper:
        ys = [math.log(warm[m][name]) for m in tiers]
        slope, _intercept = statistics.linear_regression(xs, ys)
        out[f"engine.scale_exponent.{name}"] = slope
    return out


def probe_model(seed: int) -> dict[str, float]:
    """Micro-loops over the 4x catalog's own rows."""
    tup, compare = sut.load("Tup"), sut.optional("compare")
    catalog = workloads.mixed_catalog(seed, **workloads.tier(4))
    rows = [row for table in ("R", "S", "EMP", "X") for row in catalog[table]]
    fields = [row.as_dict() for row in rows]
    clock = time.perf_counter
    samples: dict[str, list[float]] = {}

    def lap(metric: str, start: float, scale: float) -> float:
        now = clock()
        samples.setdefault(metric, []).append((now - start) * scale / len(rows))
        return now

    for _ in range(5):
        t = clock()
        fresh = [tup(f) for f in fields]
        t = lap("model.tup_construct_ns", t, 1e9)
        for row in fresh:
            hash(row)  # a fresh tuple has no cached hash yet
        t = lap("model.tup_hash_ns", t, 1e9)
        for a, b in zip(rows, fresh):
            a == b
        t = lap("model.tup_eq_ns", t, 1e9)
        if compare is not None:
            for a, b in zip(rows, fresh[1:]):
                compare(a, b)
            t = lap("model.compare_ns", t, 1e9)
        frozenset(rows)
        lap("model.result_set_us_per_krow", t, 1e6 * 1e3)
    out = {metric: statistics.median(values) for metric, values in samples.items()}
    out.setdefault("model.compare_ns", 0.0)
    return out


def probe_parallel(warm, absent: list[str]) -> dict[str, float]:
    """The parallel executor against batch on `warm_prepared`'s 64x catalog."""
    metrics = ("parallel.speedup_vs_batch_geomean", "parallel.exec_ms.count_bug_nested")
    shutdown = sut.optional("shutdown_pools")
    if shutdown is None:
        absent.append("parallel.*: repro.parallel is gone")
        return dict.fromkeys(metrics, 0.0)
    parts = os.cpu_count() or 1
    ratios, out = [], {}
    try:
        for name, text in warm.queries:
            plan = warm.prepared(text, warm.catalog)
            batch = median_seconds(lambda: plan.execute(warm.catalog), 3)
            plan.execute(warm.catalog, execution="parallel", parts=parts)  # ships the shards
            parallel = median_seconds(
                lambda: plan.execute(warm.catalog, execution="parallel", parts=parts), 3
            )
            ratios.append(batch / parallel)
            if name == "count_bug_nested":
                out[metrics[1]] = parallel * 1e3
        out[metrics[0]] = geomean(ratios)
    except (TypeError, ValueError) as exc:
        absent.append(f"parallel.*: {type(exc).__name__}: {exc}")
        out = dict.fromkeys(metrics, 0.0)
    finally:
        shutdown()
    return out
