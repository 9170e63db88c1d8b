"""The concurrent query service over the prepared-query layer.

Public surface:

* :class:`~repro.server.service.QueryService` — worker pool, bounded
  admission queue with load shedding, per-request deadlines with
  cooperative cancellation, version-race retries, result reuse;
* :class:`~repro.server.request.QueryRequest` /
  :class:`~repro.server.request.QueryResponse` — the wire shapes;
* :mod:`~repro.server.metrics` — counters (plain and labeled) and
  histograms behind ``QueryService.stats()``;
* :class:`~repro.server.slowlog.SlowQueryLog` — bounded capture of the
  slowest served requests and recent rejections/timeouts
  (``stats()["slow_queries"]``);
* :mod:`~repro.server.exposition` — Prometheus text rendering of a
  metrics snapshot and the ``/metrics`` + ``/healthz`` scrape endpoint
  (:func:`~repro.server.exposition.serve_metrics`), which also carries
  the live-introspection admin surface (``GET /queries``,
  ``POST /queries/<id>/cancel``);
* :class:`~repro.server.registry.ActiveQueryRegistry` /
  :class:`~repro.server.registry.ActiveQuery` — live in-flight query
  tracking with progress fractions and admin cancel
  (``QueryService.registry``, rendered by ``repro top``);
* :func:`~repro.server.bench.run_serve_bench` — the mixed-workload
  benchmark harness (``repro serve-bench``).

See docs/serving.md for the architecture and the lifecycle of a request,
and docs/observability.md for tracing and the slow-query log.
"""

from repro.server.exposition import MetricsServer, prometheus_text, serve_metrics
from repro.server.metrics import (
    Counter,
    Histogram,
    LabeledCounter,
    LabeledHistogram,
    MetricsRegistry,
    percentile,
)
from repro.server.registry import ActiveQuery, ActiveQueryRegistry
from repro.server.request import QueryRequest, QueryResponse
from repro.server.service import CatalogVersionRace, PendingQuery, QueryService
from repro.server.slowlog import SlowQueryLog

__all__ = [
    "QueryService",
    "PendingQuery",
    "ActiveQuery",
    "ActiveQueryRegistry",
    "QueryRequest",
    "QueryResponse",
    "CatalogVersionRace",
    "MetricsRegistry",
    "Counter",
    "LabeledCounter",
    "Histogram",
    "LabeledHistogram",
    "MetricsServer",
    "prometheus_text",
    "serve_metrics",
    "SlowQueryLog",
    "percentile",
]
