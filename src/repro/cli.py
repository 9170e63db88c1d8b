"""Command-line interface: run and explain queries over JSON catalogs.

Usage::

    python -m repro query  "SELECT r FROM R r WHERE ..." --db data.json
    python -m repro explain "SELECT ..." --db data.json
    python -m repro tables --db data.json
    python -m repro demo

``data.json`` uses the catalog format of :mod:`repro.io`. ``demo`` runs
the COUNT-bug walkthrough on built-in data (no file needed).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.pipeline import explain_query, run_query
from repro.engine.table import Catalog
from repro.errors import ReproError
from repro.io import load_catalog
from repro.model.compare import sort_key
from repro.model.values import Tup, value_repr

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nested-query optimization over complex objects (EDBT'94 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="run a query against a JSON catalog")
    query.add_argument("text", help="the SELECT-FROM-WHERE query")
    query.add_argument("--db", required=True, help="catalog JSON file")
    query.add_argument("--schema", help="TM DDL file to validate the catalog against")
    query.add_argument(
        "--engine",
        choices=("interpret", "logical", "physical"),
        default="physical",
        help="execution engine (default: physical)",
    )
    query.add_argument("--no-typecheck", action="store_true", help="skip static type checking")
    query.add_argument(
        "--analyze",
        action="store_true",
        help="instrument execution and print the EXPLAIN ANALYZE operator tree "
        "(per-operator rows in/out, wall time, cache hits, peak group sizes)",
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="serve the query N times through the prepared-plan cache and "
        "report per-call timing and cache counters (default: 1, plain run)",
    )

    explain = sub.add_parser("explain", help="show translation steps and the plan")
    explain.add_argument("text", help="the SELECT-FROM-WHERE query")
    explain.add_argument("--db", required=True, help="catalog JSON file")
    explain.add_argument("--schema", help="TM DDL file to validate the catalog against")
    explain.add_argument(
        "--physical",
        action="store_true",
        help="also compile and show the physical plan with cache counters",
    )
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="also execute the query and show the annotated operator tree",
    )

    trace = sub.add_parser(
        "trace",
        help="run a query with end-to-end tracing and dump the trace",
    )
    trace.add_argument("text", help="the SELECT-FROM-WHERE query")
    trace.add_argument("--db", required=True, help="catalog JSON file")
    trace.add_argument("--schema", help="TM DDL file to validate the catalog against")
    trace.add_argument(
        "--format",
        choices=("text", "chrome"),
        default="text",
        help="text (human-readable) or chrome (trace_event JSON for "
        "chrome://tracing / Perfetto; default: text)",
    )
    trace.add_argument("--out", metavar="PATH", help="write the dump to PATH instead of stdout")

    tables = sub.add_parser("tables", help="list tables in a JSON catalog")
    tables.add_argument("--db", required=True, help="catalog JSON file")
    tables.add_argument("--schema", help="TM DDL file to validate the catalog against")

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing: random queries on every engine"
    )
    fuzz.add_argument("--n", type=int, default=200, help="number of random queries")
    fuzz.add_argument("--seed", type=int, default=0, help="campaign seed")

    metrics = sub.add_parser(
        "metrics",
        help="run the mixed workload through a query service and dump the "
        "Prometheus exposition text",
    )
    metrics.add_argument("--requests", type=int, default=100, help="requests to serve")
    metrics.add_argument("--seed", type=int, default=0, help="workload seed")
    metrics.add_argument("--workers", type=int, default=4, help="service worker threads")
    metrics.add_argument(
        "--feedback-every",
        type=int,
        default=1,
        metavar="N",
        help="analyze every Nth leader execution for cardinality feedback "
        "(0 disables; default: 1, every leader)",
    )
    metrics.add_argument("--out", metavar="PATH", help="write the text to PATH instead of stdout")
    metrics.add_argument(
        "--listen",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="after the workload, also serve GET /metrics and /healthz for "
        "SECONDS (0 = don't serve, just dump)",
    )
    metrics.add_argument("--port", type=int, default=0, help="scrape endpoint port (0 = ephemeral)")
    metrics.add_argument(
        "--cache-budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="byte budget per cache (plan/build/result); least-recently-used "
        "entries are evicted past it (0 = unlimited; default: "
        "REPRO_CACHE_BUDGET_MB or unlimited)",
    )

    top = sub.add_parser(
        "top",
        help="poll a live service's GET /queries endpoint and render an "
        "auto-refreshing table of in-flight queries with progress",
    )
    top.add_argument(
        "--url",
        default="http://127.0.0.1:9100",
        help="base URL of the metrics/admin endpoint (default: %(default)s)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default: 1s)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = run until interrupted)",
    )
    top.add_argument(
        "--plain",
        action="store_true",
        help="append refreshes instead of clearing the screen (for pipes/CI)",
    )
    top.add_argument(
        "--cancel",
        metavar="QUERY_ID",
        help="POST /queries/<id>/cancel for QUERY_ID and exit",
    )

    caches = sub.add_parser(
        "caches",
        help="poll a live service's GET /caches endpoint and render an "
        "auto-refreshing memory report of every registered cache",
    )
    caches.add_argument(
        "--url",
        default="http://127.0.0.1:9100",
        help="base URL of the metrics/admin endpoint (default: %(default)s)",
    )
    caches.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh interval (default: 1s)",
    )
    caches.add_argument(
        "--iterations",
        type=int,
        default=0,
        metavar="N",
        help="stop after N refreshes (0 = run until interrupted)",
    )
    caches.add_argument(
        "--plain",
        action="store_true",
        help="append refreshes instead of clearing the screen (for pipes/CI)",
    )
    caches.add_argument(
        "--top",
        type=int,
        default=3,
        metavar="N",
        help="largest entries to show per cache (0 = none; default: 3)",
    )

    sub.add_parser("demo", help="run the COUNT-bug demo on built-in data")
    return parser


def _load(args: argparse.Namespace) -> Catalog:
    """Load the catalog named by --db, validating against --schema if given."""
    schema = None
    if getattr(args, "schema", None):
        from pathlib import Path

        from repro.model.ddl import parse_schema

        schema = parse_schema(Path(args.schema).read_text(encoding="utf-8"))
    return load_catalog(args.db, schema=schema)


def _demo_catalog() -> Catalog:
    catalog = Catalog()
    catalog.add_rows(
        "R", [Tup(a=1, b=2, c=10), Tup(a=2, b=0, c=99), Tup(a=3, b=5, c=20)]
    )
    catalog.add_rows("S", [Tup(c=10, d=1), Tup(c=10, d=2), Tup(c=20, d=3)])
    return catalog


def _serve_repeated(args: argparse.Namespace, catalog: Catalog) -> int:
    """Serve one query ``--repeat`` times through the prepared-plan cache."""
    import time

    from repro.core.pipeline import plan_cache_stats, prepared
    from repro.engine.cache import build_cache_stats
    from repro.server.metrics import Histogram

    latency = Histogram()
    result = None
    for _ in range(args.repeat):
        start = time.perf_counter()
        result = prepared(args.text, catalog, typecheck=not args.no_typecheck).execute(catalog)
        latency.observe((time.perf_counter() - start) * 1e3)
    assert result is not None
    for value in sorted(result, key=sort_key):
        print(value_repr(value))
    summary = latency.summary()
    print(
        f"-- {len(result)} rows; {args.repeat} calls: "
        f"mean {summary['mean']:.2f}ms, p50 {summary['p50']:.2f}ms, "
        f"p95 {summary['p95']:.2f}ms, max {summary['max']:.2f}ms",
        file=sys.stderr,
    )
    print(f"-- plan cache: {plan_cache_stats().render()}", file=sys.stderr)
    print(f"-- build cache: {build_cache_stats().render()}", file=sys.stderr)
    return 0


def _metrics_dump(args: argparse.Namespace) -> int:
    """Serve the mixed workload, then dump the Prometheus exposition text."""
    import time

    from repro.server.exposition import (
        merged_service_snapshot,
        prometheus_text,
        serve_metrics,
    )
    from repro.server.service import QueryService
    from repro.server.workload import make_requests, mixed_catalog

    catalog = mixed_catalog(seed=args.seed)
    with QueryService(
        catalog,
        workers=args.workers,
        feedback_every=args.feedback_every,
        cache_budget_mb=args.cache_budget_mb,
    ) as service:
        responses = service.serve_all(make_requests(args.requests, seed=args.seed))
        if args.listen > 0:
            endpoint = serve_metrics(service, port=args.port)
            print(
                f"-- serving {endpoint.url}/metrics and {endpoint.url}/healthz "
                f"for {args.listen:g}s",
                file=sys.stderr,
            )
            time.sleep(args.listen)
            endpoint.stop()
        text = prometheus_text(
            merged_service_snapshot(service),
            gauges={
                "queue_depth": service._queue.qsize(),
                "workers": service.workers,
            },
        )
    ok = sum(1 for r in responses if r.ok)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    print(f"-- {ok}/{len(responses)} requests ok", file=sys.stderr)
    return 0


def _fmt_bytes(n: float | None) -> str:
    """Human-readable byte count (``0B``, ``13.2KiB``, ``4.0MiB``...)."""
    n = n or 0
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    raise AssertionError  # pragma: no cover


def _fetch_json(url: str, timeout: float = 5.0) -> dict:
    import json as json_mod
    from urllib import request as urlrequest

    with urlrequest.urlopen(url, timeout=timeout) as resp:
        return json_mod.loads(resp.read().decode("utf-8"))


def _cache_footprint_line(snap: dict) -> str:
    """One line summarizing every cache's byte footprint (``repro top``)."""
    caches = snap.get("caches", {})
    parts = [
        f"{name} {_fmt_bytes(report.get('bytes', 0))}"
        for name, report in sorted(caches.items())
        if isinstance(report, dict)
    ]
    total = _fmt_bytes(snap.get("total_bytes", 0))
    return f"caches: {' · '.join(parts) or '(none registered)'}  total={total}"


def _cache_entry_summary(entry: dict) -> str:
    """Render one top-k cache entry's identity compactly."""
    parts = []
    for key in ("kind", "uid", "version", "var", "query", "catalog_version"):
        if key in entry:
            parts.append(f"{key}={entry[key]}")
    if entry.get("keys"):
        parts.append(f"keys={','.join(str(k) for k in entry['keys'])}")
    if not parts and "key" in entry:
        parts.append(str(entry["key"]))
    return " ".join(str(p) for p in parts)


def _render_caches(snap: dict, url: str, top: int) -> list[str]:
    """The rendered lines for one ``repro caches`` refresh."""
    caches = snap.get("caches", {})
    lines = [
        f"repro caches — {url}  registered={len(caches)}  "
        f"total={_fmt_bytes(snap.get('total_bytes', 0))}"
    ]
    header = (
        f"{'CACHE': <15}{'BYTES': >10}{'ENTRIES': >9}{'HITS': >9}"
        f"{'MISSES': >9}{'EVICT': >7}  {'HIT%': >5}  BUDGET/REASONS"
    )
    lines.append(header)
    for name in sorted(caches):
        report = caches[name]
        if not isinstance(report, dict) or "error" in report:
            lines.append(f"{name: <15} (error: {report.get('error', report)})")
            continue
        tail = []
        if report.get("max_bytes"):
            tail.append(f"budget={_fmt_bytes(report['max_bytes'])}")
        reasons = report.get("evictions_by_reason") or {}
        if reasons:
            tail.append(
                "evicted "
                + ",".join(f"{r}:{n}" for r, n in sorted(reasons.items()))
            )
        if report.get("memory_pressure"):
            tail.append(f"pressure={report['memory_pressure']}")
        hit_rate = report.get("hit_rate")
        lines.append(
            f"{name: <15}"
            f"{_fmt_bytes(report.get('bytes', 0)): >10}"
            f"{report.get('entries', 0): >9}"
            f"{report.get('hits', 0): >9}"
            f"{report.get('misses', 0): >9}"
            f"{report.get('evictions', 0): >7}  "
            f"{(f'{hit_rate:.0%}' if hit_rate is not None else '-'): >5}  "
            f"{' '.join(tail)}"
        )
        by_kind = report.get("bytes_by_kind") or {}
        if by_kind:
            kinds = "  ".join(
                f"{kind}={_fmt_bytes(size)}" for kind, size in sorted(by_kind.items())
            )
            lines.append(f"{'': <15}by kind: {kinds}")
        if top > 0:
            for entry in (report.get("top_entries") or [])[:top]:
                lines.append(
                    f"{'': <15}• {_fmt_bytes(entry.get('bytes', 0)): >9}  "
                    f"{_cache_entry_summary(entry)}"
                )
    return lines


def _caches(args: argparse.Namespace) -> int:
    """Poll GET /caches and render the memory report (``repro caches``)."""
    import time
    from urllib import error as urlerror

    base = args.url.rstrip("/")
    iteration = 0
    while True:
        iteration += 1
        try:
            snap = _fetch_json(f"{base}/caches")
        except (urlerror.URLError, OSError) as exc:
            print(f"error: cannot reach {base}/caches: {exc}", file=sys.stderr)
            return 1
        lines = [] if args.plain else ["\x1b[2J\x1b[H"]
        lines.extend(_render_caches(snap, base, args.top))
        print("\n".join(lines), flush=True)
        if args.iterations and iteration >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _top_row(entry: dict, width: int) -> str:
    """One rendered table line for an active/recent query snapshot."""
    progress = entry.get("progress") or 0.0
    est = entry.get("estimated_rows")
    query = entry.get("query") or ""
    query_col = max(8, width - 78)
    if len(query) > query_col:
        query = query[: query_col - 1] + "…"
    return (
        f"{entry.get('query_id', '-'): <9}"
        f"{entry.get('state', '-'): <10}"
        f"{(entry.get('exec_mode') or '-'): <9}"
        f"{progress * 100: >5.1f}%  "
        f"{entry.get('rows_processed', 0): >9}"
        f"{('%.0f' % est) if est else '-': >10}  "
        f"{entry.get('elapsed_seconds', 0.0): >7.2f}s  "
        f"{(entry.get('current_op') or '-')[:24]: <25}"
        f"{query}"
    )


def _top(args: argparse.Namespace) -> int:
    """Poll GET /queries and render an auto-refreshing table (``repro top``)."""
    import json as json_mod
    import shutil
    import time
    from urllib import error as urlerror
    from urllib import request as urlrequest

    base = args.url.rstrip("/")
    if args.cancel:
        req = urlrequest.Request(f"{base}/queries/{args.cancel}/cancel", method="POST")
        try:
            with urlrequest.urlopen(req, timeout=5) as resp:
                body = json_mod.loads(resp.read().decode("utf-8"))
        except urlerror.HTTPError as exc:
            body = json_mod.loads(exc.read().decode("utf-8"))
        print(json_mod.dumps(body))
        return 0 if body.get("cancelled") else 1
    header = (
        f"{'ID': <9}{'STATE': <10}{'MODE': <9}{'PROG': >6}  "
        f"{'ROWS': >9}{'EST': >10}  {'ELAPSED': >8}  {'OPERATOR': <25}QUERY"
    )
    iteration = 0
    while True:
        iteration += 1
        try:
            with urlrequest.urlopen(f"{base}/queries", timeout=5) as resp:
                snap = json_mod.loads(resp.read().decode("utf-8"))
        except (urlerror.URLError, OSError) as exc:
            print(f"error: cannot reach {base}/queries: {exc}", file=sys.stderr)
            return 1
        width = shutil.get_terminal_size((120, 24)).columns
        lines = []
        if not args.plain:
            lines.append("\x1b[2J\x1b[H")  # clear screen, home cursor
        active = snap.get("active", [])
        recent = snap.get("recent", [])
        lines.append(
            f"repro top — {base}  active={len(active)}  "
            f"refresh={args.interval:g}s  (cancel: repro top --cancel <id>)"
        )
        lines.append(header)
        for entry in active:
            lines.append(_top_row(entry, width))
        if not active:
            lines.append("(no queries in flight)")
        if recent:
            lines.append("")
            lines.append(f"RECENT ({len(recent)} finished)")
            for entry in recent[-10:][::-1]:
                lines.append(_top_row(entry, width))
        try:
            lines.append(_cache_footprint_line(_fetch_json(f"{base}/caches")))
        except (urlerror.URLError, OSError, ValueError):
            pass  # endpoint predates /caches or is mid-restart; skip the line
        print("\n".join(lines), flush=True)
        if args.iterations and iteration >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _trace_query(args: argparse.Namespace) -> int:
    """Run one query with end-to-end tracing and dump the trace."""
    from repro.core.trace import QueryTrace, chrome_trace
    from repro.engine.analyze import explain_analyze

    catalog = _load(args)
    trace = QueryTrace(query=args.text)
    result = run_query(args.text, catalog, analyze=True, trace=trace)
    if args.format == "chrome":
        import json

        dump = json.dumps(chrome_trace(trace, result.analyzed), indent=2)
    else:
        dump = trace.render()
        if result.analyzed is not None:
            dump += "\n" + explain_analyze(result.analyzed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(dump)
    print(
        f"-- trace {trace.trace_id}: {len(trace.events)} events, "
        f"{len(result.value)} rows ({result.engine} engine)",
        file=sys.stderr,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "query":
        catalog = _load(args)
        if args.repeat > 1:
            return _serve_repeated(args, catalog)
        result = run_query(
            args.text,
            catalog,
            engine=args.engine,
            typecheck=not args.no_typecheck,
            analyze=args.analyze and args.engine == "physical",
        )
        for value in sorted(result.value, key=sort_key):
            print(value_repr(value))
        print(f"-- {len(result.value)} rows ({result.engine} engine)", file=sys.stderr)
        if result.analyzed is not None:
            from repro.engine.analyze import explain_analyze

            print(explain_analyze(result.analyzed))
        elif args.analyze:
            print(
                f"-- --analyze requires the physical engine (ran {result.engine})",
                file=sys.stderr,
            )
        return 0
    if args.command == "explain":
        catalog = _load(args)
        text = explain_query(args.text, catalog)
        if args.physical:
            from repro.core.pipeline import prepared
            from repro.engine.explain import explain_physical

            pq = prepared(args.text, catalog)
            if pq.plan is not None:
                pq.execute(catalog)  # populate the cache counters
                text += "\nphysical plan:\n" + explain_physical(
                    pq.compile_for(catalog), 1
                )
        if args.analyze:
            from repro.core.pipeline import prepared
            from repro.engine.analyze import explain_analyze

            pq = prepared(args.text, catalog)
            if pq.plan is not None:
                text += "\nanalyze:\n" + explain_analyze(pq.analyze(catalog))
        print(text)
        return 0
    if args.command == "trace":
        return _trace_query(args)
    if args.command == "tables":
        catalog = _load(args)
        for name in sorted(catalog):
            table = catalog[name]
            print(f"{name}: {len(table)} rows, {table.row_type!r}")
        return 0
    if args.command == "fuzz":
        from repro.testing import fuzz_campaign

        failures = fuzz_campaign(n_queries=args.n, seed=args.seed)
        if failures:
            for case_seed, query, message in failures[:10]:
                print(f"seed {case_seed}: {message}\n  {query}", file=sys.stderr)
            print(f"{len(failures)}/{args.n} queries diverged", file=sys.stderr)
            return 1
        print(f"ok: {args.n} random queries agreed on all engines (seed {args.seed})")
        return 0
    if args.command == "metrics":
        return _metrics_dump(args)
    if args.command == "top":
        return _top(args)
    if args.command == "caches":
        return _caches(args)
    if args.command == "demo":
        query = "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)"
        catalog = _demo_catalog()
        print("query:", query)
        print()
        print(explain_query(query, catalog))
        print()
        result = run_query(query, catalog)
        print("result (note the dangling r with b = 0 survives):")
        for value in sorted(result.value, key=sort_key):
            print(" ", value_repr(value))
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
