"""Tests for Prometheus text exposition and the scrape endpoint."""

import json
import urllib.error
import urllib.request

import pytest

from repro.server.exposition import (
    CONTENT_TYPE,
    MetricsServer,
    parse_prometheus,
    prometheus_text,
    serve_metrics,
)
from repro.server.metrics import MetricsRegistry
from repro.server.service import QueryService
from repro.server.workload import make_requests, mixed_catalog


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    reg.counter("served").inc(7)
    reg.labeled_counter("queries_by_rewrite").inc("nestjoin", 3)
    reg.labeled_counter("queries_by_rewrite").inc("flat", 4)
    hist = reg.histogram("latency_ms")
    for v in (1.0, 2.0, 3.0, 4.0):
        hist.observe(v)
    fam = reg.labeled_histogram("qerror_by_op")
    fam.observe("scan", 1.0)
    fam.observe("join_nest", 12.5)
    return reg


class TestPrometheusText:
    def test_counters_get_total_suffix(self, registry):
        text = prometheus_text(registry.snapshot())
        samples = parse_prometheus(text)
        assert samples[("repro_served_total", ())] == 7.0

    def test_labeled_counters_use_declared_label_name(self, registry):
        samples = parse_prometheus(prometheus_text(registry.snapshot()))
        assert samples[("repro_queries_by_rewrite_total", (("kind", "nestjoin"),))] == 3.0
        assert samples[("repro_queries_by_rewrite_total", (("kind", "flat"),))] == 4.0

    def test_histogram_summary_quantiles_and_totals(self, registry):
        samples = parse_prometheus(prometheus_text(registry.snapshot()))
        assert samples[("repro_latency_ms_count", ())] == 4.0
        assert samples[("repro_latency_ms_sum", ())] == pytest.approx(10.0)
        assert ("repro_latency_ms", (("quantile", "0.5"),)) in samples

    def test_labeled_histogram_families(self, registry):
        samples = parse_prometheus(prometheus_text(registry.snapshot()))
        assert samples[("repro_qerror_by_op_count", (("op", "join_nest"),))] == 1.0
        assert samples[
            ("repro_qerror_by_op", (("op", "join_nest"), ("quantile", "0.95")))
        ] == pytest.approx(12.5)

    def test_gauges(self, registry):
        text = prometheus_text(registry.snapshot(), gauges={"queue_depth": 5})
        samples = parse_prometheus(text)
        assert samples[("repro_queue_depth", ())] == 5.0
        assert "# TYPE repro_queue_depth gauge" in text

    def test_empty_snapshot_renders(self):
        assert parse_prometheus(prometheus_text({})) == {}

    def test_prefix_override(self, registry):
        samples = parse_prometheus(prometheus_text(registry.snapshot(), prefix="x_"))
        assert ("x_served_total", ()) in samples


class TestParsePrometheus:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_prometheus("not a metric line at all{")

    def test_rejects_non_numeric_value(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_prometheus("repro_served_total seven")

    def test_rejects_malformed_comment(self):
        with pytest.raises(ValueError, match="malformed comment"):
            parse_prometheus("# not a type line")

    def test_rejects_malformed_labels(self):
        with pytest.raises(ValueError, match="malformed labels"):
            parse_prometheus('m{kind=unquoted} 1')

    def test_accepts_escaped_label_values(self):
        samples = parse_prometheus('m{kind="a\\"b"} 1')
        assert samples[("m", (("kind", 'a\\"b'),))] == 1.0


class TestMetricsServer:
    def test_scrape_and_health_over_http(self, registry):
        with MetricsServer(registry.snapshot, gauge_source=lambda: {"g": 1}) as server:
            with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                samples = parse_prometheus(resp.read().decode())
            assert samples[("repro_served_total", ())] == 7.0
            assert samples[("repro_g", ())] == 1.0
            with urllib.request.urlopen(f"{server.url}/healthz", timeout=5) as resp:
                health = json.loads(resp.read())
            assert health["status"] == "ok"
            assert health["uptime_seconds"] >= 0

    def test_unknown_path_is_404(self, registry):
        with MetricsServer(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{server.url}/nope", timeout=5)
            assert exc_info.value.code == 404

    def test_port_requires_started_server(self, registry):
        server = MetricsServer(registry.snapshot)
        with pytest.raises(RuntimeError):
            server.port

    def test_stop_is_idempotent(self, registry):
        server = MetricsServer(registry.snapshot).start()
        server.stop()
        server.stop()


class TestServeMetrics:
    def test_live_service_scrape_has_qerror_and_rewrites(self):
        catalog = mixed_catalog(seed=5, n_left=40, n_right=160, n_chain=8)
        with QueryService(
            catalog, workers=2, queue_limit=256, feedback_every=1
        ) as service:
            service.serve_all(make_requests(60, seed=5))
            with serve_metrics(service) as server:
                with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as resp:
                    samples = parse_prometheus(resp.read().decode())
        rewrites = [k for k in samples if k[0] == "repro_queries_by_rewrite_total"]
        assert rewrites
        assert samples[("repro_qerror_count", ())] > 0
        assert samples[("repro_workers", ())] == 2.0
        assert ("repro_queue_depth", ()) in samples

    def test_merged_snapshot_keeps_service_instruments(self):
        from repro.server.exposition import merged_service_snapshot

        catalog = mixed_catalog(seed=5, n_left=20, n_right=80, n_chain=4)
        with QueryService(catalog, workers=1) as service:
            service.execute("SELECT r FROM R r WHERE r.a = 1")
            snap = merged_service_snapshot(service)
        assert snap["counters"]["ok"] >= 1  # service side intact
        assert snap["families"]  # cache side merged
        parse_prometheus(prometheus_text(snap))  # and it all renders cleanly


SAMPLE_CACHES = {
    "build": {
        "bytes": 900,
        "bytes_by_kind": {"hash-build": 600, "inl-groups": 300},
        "entries": 2,
        "hits": 4,
        "misses": 2,
        "inserts": 2,
        "evictions_by_reason": {"budget": 1, "version": 2},
        "memory_pressure": 1,
    },
    "plan": {"bytes": 100, "entries": 1, "hits": 9, "misses": 1, "inserts": 1},
}


class TestCacheFamilies:
    def test_families_from_snapshot(self):
        from repro.server.exposition import cache_families

        families = cache_families(SAMPLE_CACHES)
        assert families["cache_bytes"]["type"] == "gauge"
        assert ({"cache": "build", "kind": "hash-build"}, 600) in families[
            "cache_bytes"
        ]["samples"]
        # A cache without kinds reports one all-kind sample.
        assert ({"cache": "plan", "kind": "all"}, 100) in families["cache_bytes"][
            "samples"
        ]
        assert ({"cache": "build", "reason": "budget"}, 1) in families[
            "cache_evictions"
        ]["samples"]
        assert ({"cache": "build"}, 1) in families["memory_pressure"]["samples"]

    def test_families_render_and_parse(self):
        from repro.server.exposition import cache_families

        text = prometheus_text({"families": cache_families(SAMPLE_CACHES)})
        assert "# TYPE repro_cache_bytes gauge" in text
        assert "# TYPE repro_cache_evictions_total counter" in text
        samples = parse_prometheus(text)
        assert samples[
            ("repro_cache_bytes", (("cache", "build"), ("kind", "inl-groups")))
        ] == 300.0
        assert samples[
            ("repro_cache_evictions_total", (("cache", "build"), ("reason", "version")))
        ] == 2.0
        assert samples[("repro_cache_hits_total", (("cache", "plan"),))] == 9.0

    def test_live_scrape_carries_cache_families(self):
        catalog = mixed_catalog(seed=5, n_left=20, n_right=80, n_chain=4)
        with QueryService(catalog, workers=1) as service:
            service.execute("SELECT r FROM R r WHERE r.a = 1")
            with serve_metrics(service) as server:
                with urllib.request.urlopen(f"{server.url}/metrics", timeout=5) as resp:
                    samples = parse_prometheus(resp.read().decode())
        by_cache = {
            labels
            for name, labels in samples
            if name == "repro_cache_bytes"
        }
        caches = {dict(labels)["cache"] for labels in by_cache}
        assert {"plan", "build", "result"} <= caches
        assert samples[("repro_cache_entries", (("cache", "result"),))] >= 1.0


class TestCachesEndpoint:
    def test_get_caches_over_http(self):
        catalog = mixed_catalog(seed=5, n_left=20, n_right=80, n_chain=4)
        with QueryService(catalog, workers=1) as service:
            service.execute("SELECT r FROM R r WHERE r.a = 1")
            with serve_metrics(service) as server:
                with urllib.request.urlopen(f"{server.url}/caches", timeout=5) as resp:
                    assert resp.status == 200
                    snap = json.loads(resp.read())
        assert {"plan", "build", "result"} <= set(snap["caches"])
        assert snap["total_bytes"] > 0
        result = snap["caches"]["result"]
        assert result["bytes"] > 0 and result["entries"] >= 1
        # Top entries carry identity, not just sizes.
        assert result["top_entries"][0]["key"]["query"].startswith("SELECT")
        build = snap["caches"]["build"]
        assert "bytes_by_kind" in build and "evictions_by_reason" in build

    def test_caches_404_without_source(self, registry):
        with MetricsServer(registry.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(f"{server.url}/caches", timeout=5)
            assert exc_info.value.code == 404
