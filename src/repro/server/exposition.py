"""Prometheus text exposition for metrics snapshots, plus a scrape endpoint.

:func:`prometheus_text` renders a :meth:`~repro.server.metrics.MetricsRegistry.snapshot`
in the Prometheus text format (version 0.0.4):

* counters → ``# TYPE <name> counter`` with a ``_total`` suffix, one
  sample per counter (labeled counters get one sample per label);
* histograms → ``# TYPE <name> summary``: quantile samples from the
  sliding window plus lifetime ``_sum``/``_count`` (exact — see
  :meth:`Histogram.summary`), so totals never under-report;
* labeled histograms → the same summary series with an extra label per
  family member (e.g. ``repro_qerror_by_op{op="join_nest",quantile="0.95"}``);
* optional gauges (queue depth, worker count) → ``# TYPE <name> gauge``.

:class:`MetricsServer` serves the rendering from a stdlib
``http.server`` endpoint — ``GET /metrics`` (text format) and
``GET /healthz`` (JSON liveness with uptime, live in-flight count, and
queue depth) — on a daemon thread, attachable to a live
:class:`~repro.server.service.QueryService` with :func:`serve_metrics`.
No third-party client library is involved; :func:`parse_prometheus` is
the matching strict parser used by tests and ``make metrics-smoke`` to
prove the output is well-formed.

The same endpoint doubles as the live-introspection admin surface (see
docs/observability.md): when a ``registry_source`` is attached (as
:func:`serve_metrics` does), ``GET /queries`` returns the
:class:`~repro.server.registry.ActiveQueryRegistry` snapshot — every
in-flight query with its progress fraction — and
``POST /queries/<id>/cancel`` cancels one by id through its
:class:`~repro.engine.cancel.CancelToken`. ``repro top`` renders
``GET /queries`` as an auto-refreshing table.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

__all__ = [
    "prometheus_text",
    "parse_prometheus",
    "cache_families",
    "MetricsServer",
    "serve_metrics",
    "merged_service_snapshot",
    "CONTENT_TYPE",
]

#: The classic Prometheus text exposition content type.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Label names per labeled instrument; anything unlisted uses "label".
LABEL_NAMES = {
    "queries_by_rewrite": "kind",
    "queries_by_exec_mode": "mode",
    "qerror_by_rewrite": "kind",
    "qerror_by_op": "op",
}

#: summary() percentile keys → Prometheus quantile label values.
_QUANTILES = (("p50", "0.5"), ("p90", "0.9"), ("p95", "0.95"), ("p99", "0.99"))

_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _metric_name(name: str, prefix: str) -> str:
    return prefix + _INVALID_NAME_CHARS.sub("_", name)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    # repr keeps full precision; integers render without a trailing ".0"
    # purely for readability — Prometheus accepts both.
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label_str(pairs: Mapping[str, str]) -> str:
    inner = ",".join(f'{k}="{_escape_label(str(v))}"' for k, v in pairs.items())
    return "{" + inner + "}" if inner else ""


def _summary_lines(name: str, summary: Mapping, base_labels: Mapping[str, str]) -> list[str]:
    lines = []
    for key, quantile in _QUANTILES:
        labels = dict(base_labels)
        labels["quantile"] = quantile
        lines.append(f"{name}{_label_str(labels)} {_fmt(summary[key])}")
    suffix = _label_str(dict(base_labels))
    lines.append(f"{name}_sum{suffix} {_fmt(summary['sum'])}")
    lines.append(f"{name}_count{suffix} {_fmt(summary['count'])}")
    return lines


def prometheus_text(
    snapshot: Mapping,
    prefix: str = "repro_",
    gauges: Mapping[str, float] | None = None,
) -> str:
    """Render a metrics snapshot in the Prometheus text format.

    *snapshot* is the dict shape of :meth:`MetricsRegistry.snapshot`
    (missing sections are treated as empty, so any superset — e.g.
    ``QueryService.stats()`` — renders its instrument sections too).
    *gauges* adds point-in-time values (queue depth, workers) as gauge
    families.

    A ``families`` section carries pre-shaped multi-label samples —
    ``{name: {"type": "counter"|"gauge", "samples": [(labels, value),
    ...]}}`` — for families the single-label instrument registry cannot
    express (e.g. ``cache_bytes{cache,kind}``; see :func:`cache_families`).
    Counters get the conventional ``_total`` suffix.
    """
    lines: list[str] = []
    for name, value in sorted((snapshot.get("counters") or {}).items()):
        metric = _metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")
    for name, family in sorted((snapshot.get("labeled") or {}).items()):
        metric = _metric_name(name, prefix) + "_total"
        label_name = LABEL_NAMES.get(name, "label")
        lines.append(f"# TYPE {metric} counter")
        for label, value in sorted(family.items()):
            lines.append(f"{metric}{_label_str({label_name: label})} {_fmt(value)}")
    for name, summary in sorted((snapshot.get("histograms") or {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.extend(_summary_lines(metric, summary, {}))
    for name, family in sorted((snapshot.get("labeled_histograms") or {}).items()):
        metric = _metric_name(name, prefix)
        label_name = LABEL_NAMES.get(name, "label")
        lines.append(f"# TYPE {metric} summary")
        for label, summary in sorted(family.items()):
            lines.extend(_summary_lines(metric, summary, {label_name: label}))
    for name, family in sorted((snapshot.get("families") or {}).items()):
        kind = family.get("type", "gauge")
        metric = _metric_name(name, prefix) + ("_total" if kind == "counter" else "")
        lines.append(f"# TYPE {metric} {kind}")
        for labels, value in family.get("samples", ()):
            lines.append(f"{metric}{_label_str(labels)} {_fmt(value)}")
    for name, value in sorted((gauges or {}).items()):
        metric = _metric_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Strictly parse Prometheus text into ``(name, labels) → value``.

    Raises ``ValueError`` on any malformed line — this is the validator
    behind the exposition tests and ``make metrics-smoke``, deliberately
    unforgiving so formatting regressions fail loudly rather than scrape
    quietly wrong.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if not (line.startswith("# TYPE ") or line.startswith("# HELP ")):
                raise ValueError(f"line {lineno}: malformed comment {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(
            (name, value) for name, value in _LABEL_RE.findall(labels_text)
        )
        reconstructed = ",".join(f'{k}="{v}"' for k, v in labels)
        if labels_text and reconstructed != labels_text:
            raise ValueError(f"line {lineno}: malformed labels {labels_text!r}")
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric value {match.group('value')!r}"
            ) from None
        samples[(match.group("name"), labels)] = value
    return samples


def cache_families(caches: Mapping[str, Mapping] | None = None) -> dict:
    """Multi-label Prometheus families from a cache-registry snapshot.

    *caches* is the ``{"caches": ...}`` inner dict of
    :func:`repro.engine.cachereg.caches_snapshot` (fetched fresh when
    omitted). Families emitted per registered cache:

    * ``cache_bytes{cache,kind}`` (gauge) — per artifact kind where the
      cache distinguishes kinds (the build cache), ``kind="all"``
      otherwise;
    * ``cache_entries{cache}`` (gauge);
    * ``cache_hits``/``cache_misses``/``cache_inserts{cache}`` (counters);
    * ``cache_evictions{cache,reason}`` (counter) — reasons
      ``capacity``/``version``/``budget``/``clear``;
    * ``memory_pressure{cache}`` (counter) — budget evictions only.
    """
    if caches is None:
        from repro.engine.cachereg import caches_snapshot

        caches = caches_snapshot(top_k=0)["caches"]
    bytes_samples: list = []
    entries_samples: list = []
    hits: list = []
    misses: list = []
    inserts: list = []
    evictions: list = []
    pressure: list = []
    for cache, report in sorted(caches.items()):
        by_kind = report.get("bytes_by_kind")
        if by_kind:
            for kind, nbytes in sorted(by_kind.items()):
                bytes_samples.append(({"cache": cache, "kind": kind}, nbytes))
        else:
            bytes_samples.append(
                ({"cache": cache, "kind": "all"}, report.get("bytes", 0))
            )
        entries_samples.append(({"cache": cache}, report.get("entries", 0)))
        hits.append(({"cache": cache}, report.get("hits", 0)))
        misses.append(({"cache": cache}, report.get("misses", 0)))
        inserts.append(({"cache": cache}, report.get("inserts", 0)))
        for reason, count in sorted((report.get("evictions_by_reason") or {}).items()):
            evictions.append(({"cache": cache, "reason": reason}, count))
        pressure.append(({"cache": cache}, report.get("memory_pressure", 0)))
    return {
        "cache_bytes": {"type": "gauge", "samples": bytes_samples},
        "cache_entries": {"type": "gauge", "samples": entries_samples},
        "cache_hits": {"type": "counter", "samples": hits},
        "cache_misses": {"type": "counter", "samples": misses},
        "cache_inserts": {"type": "counter", "samples": inserts},
        "cache_evictions": {"type": "counter", "samples": evictions},
        "memory_pressure": {"type": "counter", "samples": pressure},
    }


class MetricsServer:
    """A daemon-thread scrape endpoint over a snapshot source.

    ``snapshot_source`` is any zero-argument callable returning the
    registry snapshot dict; ``gauge_source`` (optional) returns
    point-in-time gauges merged into every scrape. ``port=0`` binds an
    ephemeral port (read it back from :attr:`port` after :meth:`start`).
    Usable as a context manager.
    """

    def __init__(
        self,
        snapshot_source: Callable[[], Mapping],
        gauge_source: Callable[[], Mapping[str, float]] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro_",
        registry_source: Callable[[], object] | None = None,
        health_source: Callable[[], Mapping] | None = None,
        caches_source: Callable[[], Mapping] | None = None,
    ):
        self.snapshot_source = snapshot_source
        self.gauge_source = gauge_source
        self.host = host
        self.prefix = prefix
        #: Zero-arg callable returning the cache-registry snapshot behind
        #: ``GET /caches`` (404 when unset).
        self.caches_source = caches_source
        #: Zero-arg callable returning the
        #: :class:`~repro.server.registry.ActiveQueryRegistry` behind
        #: ``GET /queries`` and ``POST /queries/<id>/cancel`` (both 404
        #: when unset).
        self.registry_source = registry_source
        #: Extra JSON fields merged into ``GET /healthz`` (in-flight
        #: count, queue depth, ... — anything the attachment knows).
        self.health_source = health_source
        self._requested_port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "MetricsServer":
        if self._httpd is not None:
            return self
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), self._make_handler()
        )
        self._httpd.daemon_threads = True
        self._started_at = time.monotonic()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("metrics server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- rendering -----------------------------------------------------------
    def render(self) -> str:
        gauges = dict(self.gauge_source()) if self.gauge_source is not None else None
        return prometheus_text(self.snapshot_source(), prefix=self.prefix, gauges=gauges)

    def health(self) -> dict:
        out = {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started_at,
        }
        if self.health_source is not None:
            try:
                out.update(self.health_source())
            except Exception as exc:  # liveness must answer regardless
                out["health_source_error"] = str(exc)
        return out

    def queries(self) -> dict:
        """The live-registry snapshot behind ``GET /queries``."""
        registry = self.registry_source() if self.registry_source is not None else None
        if registry is None:
            return {"active": [], "recent": []}
        return registry.snapshot()

    def cancel_query(self, query_id: str) -> bool:
        """Cancel one live query by id (False: unknown id or no registry)."""
        registry = self.registry_source() if self.registry_source is not None else None
        if registry is None:
            return False
        return registry.cancel(query_id, reason=f"cancelled by admin: {query_id}")

    def _make_handler(self):
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    try:
                        body = server.render().encode("utf-8")
                    except Exception as exc:  # defensive: a scrape must answer
                        self._respond(500, "text/plain", f"render error: {exc}".encode())
                        return
                    self._respond(200, CONTENT_TYPE, body)
                elif path == "/healthz":
                    body = json.dumps(server.health()).encode("utf-8")
                    self._respond(200, "application/json", body)
                elif path == "/caches":
                    if server.caches_source is None:
                        self._respond(404, "text/plain", b"no cache registry attached\n")
                        return
                    try:
                        body = json.dumps(server.caches_source(), default=str).encode(
                            "utf-8"
                        )
                    except Exception as exc:  # defensive: a scrape must answer
                        self._respond(500, "text/plain", f"snapshot error: {exc}".encode())
                        return
                    self._respond(200, "application/json", body)
                elif path == "/queries":
                    if server.registry_source is None:
                        self._respond(404, "text/plain", b"no query registry attached\n")
                        return
                    try:
                        body = json.dumps(server.queries(), default=str).encode("utf-8")
                    except Exception as exc:  # defensive: a scrape must answer
                        self._respond(500, "text/plain", f"snapshot error: {exc}".encode())
                        return
                    self._respond(200, "application/json", body)
                else:
                    self._respond(404, "text/plain", b"not found\n")

            def do_POST(self):  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                parts = path.strip("/").split("/")
                # POST /queries/<id>/cancel
                if len(parts) == 3 and parts[0] == "queries" and parts[2] == "cancel":
                    if server.registry_source is None:
                        self._respond(404, "text/plain", b"no query registry attached\n")
                        return
                    query_id = parts[1]
                    cancelled = server.cancel_query(query_id)
                    body = json.dumps(
                        {"query_id": query_id, "cancelled": cancelled}
                    ).encode("utf-8")
                    self._respond(200 if cancelled else 404, "application/json", body)
                else:
                    self._respond(404, "text/plain", b"not found\n")

            def _respond(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request noise
                pass

        return Handler


def merged_service_snapshot(service) -> dict:
    """A service's registry snapshot merged with the cache registry's."""
    snap = service.metrics.snapshot()
    # The cache-registry families (cache_bytes{cache,kind}, cache_evictions
    # {cache,reason}, memory_pressure{cache}) ride along on every scrape,
    # pinning "result" to this service's cache.
    snap["families"] = cache_families(service.caches(top_k=0)["caches"])
    return snap


def serve_metrics(service, host: str = "127.0.0.1", port: int = 0) -> MetricsServer:
    """Attach a started :class:`MetricsServer` to a live ``QueryService``.

    Scrapes render the service's :class:`MetricsRegistry` (counters,
    latency histograms, ``queries_by_rewrite``, the q-error families)
    merged with the cache families (:func:`merged_service_snapshot`),
    plus point-in-time gauges for queue depth, worker-thread count, and
    live in-flight queries. The admin surface comes attached:
    ``GET /queries`` over the service's :class:`~repro.server.registry.ActiveQueryRegistry`,
    ``POST /queries/<id>/cancel``, ``GET /caches`` with the cache
    registry's byte/entry report, and a ``/healthz`` carrying uptime,
    in-flight count, and queue depth.
    """

    def gauges() -> dict:
        return {
            "queue_depth": service._queue.qsize(),
            "workers": service.workers,
            "in_flight": len(service.registry),
        }

    def health_extras() -> dict:
        return {
            "in_flight": len(service.registry),
            "queue_depth": service._queue.qsize(),
            "workers": service.workers,
        }

    return MetricsServer(
        lambda: merged_service_snapshot(service),
        gauge_source=gauges,
        host=host,
        port=port,
        registry_source=lambda: service.registry,
        health_source=health_extras,
        caches_source=lambda: service.caches(top_k=5),
    ).start()
