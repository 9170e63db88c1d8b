"""Smoke-test live query introspection end to end (``make introspection-smoke``).

1. start a real :class:`QueryService` over a large R/S catalog and
   attach the admin endpoint with :func:`serve_metrics`;
2. submit a deliberately slow query (the COUNT-bug join over ~400k
   rows) and scrape ``GET /queries`` until the request shows up
   mid-flight with a progress fraction strictly inside (0, 1);
3. cancel it by id with ``POST /queries/<id>/cancel`` and require the
   response future to resolve to outcome ``"cancelled"`` within a
   deadline — the admin cancel must actually stop the operators, not
   just flip a flag;
4. require the structured event log (``stats()["events"]``) to carry
   the correlated ``admit`` → ``cancel`` story for that ``query_id``,
   and ``/healthz`` to report uptime/in-flight/queue-depth.

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

#: The query execution must be dead (future resolved) this many seconds
#: after the admin cancel lands. Generous for shared CI runners; local
#: cancellation latency is one POLL_INTERVAL of rows.
CANCEL_DEADLINE_SECONDS = 15.0

#: How long we are willing to poll /queries for the mid-flight snapshot.
SCRAPE_DEADLINE_SECONDS = 20.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.stderr.write(f"introspection-smoke FAILED: {message}\n")
        sys.exit(1)


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return json.loads(resp.read())


def post(url: str) -> tuple[int, dict]:
    request = urllib.request.Request(url, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:  # 404 etc. still carry JSON
        return exc.code, json.loads(exc.read())


def run(catalog, slow_query: str) -> None:
    from repro.server.exposition import serve_metrics
    from repro.server.request import QueryRequest
    from repro.server.service import QueryService

    with QueryService(catalog, workers=2) as service:
        with serve_metrics(service) as server:
            health = get_json(f"{server.url}/healthz")
            for key in ("status", "uptime_seconds", "in_flight", "queue_depth"):
                expect(key in health, f"/healthz lacks {key!r}: {health}")

            request = QueryRequest(slow_query, timeout=120.0)
            future = service.submit(request)

            # Scrape until the request is visibly mid-flight: operator
            # polls feed the progress sink, so require a progress
            # fraction strictly inside (0, 1).
            deadline = time.monotonic() + SCRAPE_DEADLINE_SECONDS
            entry = None
            while time.monotonic() < deadline:
                snapshot = get_json(f"{server.url}/queries")
                live = [
                    e
                    for e in snapshot["active"]
                    if e["query_id"] == request.request_id
                ]
                if live:
                    entry = live[0]
                    if 0.0 < entry["progress"] < 1.0:
                        break
                if future.done():
                    expect(
                        False,
                        "query finished before it could be "
                        f"observed mid-flight: {future.result().outcome}",
                    )
                time.sleep(0.05)
            expect(
                entry is not None,
                "query never appeared in GET /queries",
            )
            expect(
                entry["state"] == "running",
                f"expected a running entry, got {entry['state']}",
            )
            expect(
                0.0 < entry["progress"] < 1.0,
                "mid-flight progress not in (0,1): "
                f"{entry['progress']} ({entry['rows_processed']} of "
                f"{entry['estimated_rows']} estimated rows)",
            )

            in_flight = get_json(f"{server.url}/healthz")["in_flight"]
            expect(
                in_flight >= 1,
                f"/healthz in_flight should be >= 1, got {in_flight}",
            )

            status, body = post(
                f"{server.url}/queries/{request.request_id}/cancel"
            )
            expect(
                status == 200 and body.get("cancelled") is True,
                f"cancel POST failed: {status} {body}",
            )

            start = time.monotonic()
            response = future.result(timeout=CANCEL_DEADLINE_SECONDS)
            cancel_latency = time.monotonic() - start
            expect(
                response.outcome == "cancelled",
                "expected outcome 'cancelled', got "
                f"{response.outcome!r} ({response.error})",
            )

            # Unknown ids must 404, not crash the endpoint.
            status, body = post(f"{server.url}/queries/no-such-id/cancel")
            expect(
                status == 404 and body.get("cancelled") is False,
                f"unknown-id cancel should 404: {status} {body}",
            )

            events = [
                e
                for e in service.stats()["events"]
                if e.get("query_id") == request.request_id
            ]
            kinds = [e["event"] for e in events]
            expect(
                "admit" in kinds and "cancel" in kinds,
                "event log lacks admit->cancel for "
                f"{request.request_id}: {kinds}",
            )
            expect(
                kinds.index("admit") < kinds.index("cancel"),
                f"admit must precede cancel: {kinds}",
            )

            recent = get_json(f"{server.url}/queries")["recent"]
            finished = [
                e for e in recent if e["query_id"] == request.request_id
            ]
            expect(
                bool(finished) and finished[0]["state"] == "cancelled",
                "cancelled query missing from recent pane",
            )

    print(
        "introspection-smoke ok: observed "
        f"progress={entry['progress']:.3f} "
        f"({entry['rows_processed']} rows, op={entry['current_op']}), "
        f"cancelled in {cancel_latency * 1e3:.0f}ms, "
        f"events={kinds}"
    )


def main() -> None:
    from repro.core.log import clear_events
    from repro.server.workload import mixed_catalog
    from repro.workloads import COUNT_BUG_NESTED

    # Big enough that the COUNT-bug join runs for O(1s) warm — slow
    # enough to scrape mid-flight, fast enough for CI if cancel fails.
    catalog = mixed_catalog(seed=3, n_left=40000, n_right=240000)
    clear_events()
    run(catalog, COUNT_BUG_NESTED)


if __name__ == "__main__":
    main()
