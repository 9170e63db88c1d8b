"""Tests for the perf report schema and the regression gate script."""

import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.perf import PERF_QUERIES, SCHEMA_VERSION, collect_perf

REPO_ROOT = Path(__file__).resolve().parents[2]
GATE = REPO_ROOT / "scripts" / "perf_gate.py"


@pytest.fixture(scope="module")
def perf():
    # Tiny catalog + few repeats: the schema is under test, not the clock.
    perf = collect_perf(repeats=2, n_left=20, n_right=80, n_chain=4)
    # On a catalog this small the overhead measurement is pure scheduler
    # noise; pin it so the gate tests below exercise the budget check
    # deterministically. The real number comes from the full-size report.
    perf["introspection"]["overhead_pct"] = 1.0
    perf["caches"]["accounting_overhead_pct"] = 1.0
    return perf


class TestCollectPerf:
    def test_schema_top_level(self, perf):
        assert perf["schema_version"] == SCHEMA_VERSION
        assert set(perf) == {
            "schema_version",
            "config",
            "benchmarks",
            "qerror",
            "introspection",
            "caches",
        }

    def test_introspection_section_keys(self, perf):
        intro = perf["introspection"]
        assert intro["sweeps"] >= 1
        assert intro["queries_per_sweep"] >= 1
        assert intro["baseline_sweep_ms"] > 0
        assert intro["instrumented_sweep_ms"] > 0
        assert math.isfinite(intro["overhead_pct"])

    def test_caches_section_keys(self, perf):
        caches = perf["caches"]
        assert caches["sweeps"] >= 1
        assert caches["serves_per_sweep"] >= 1
        assert caches["queries_per_serve"] >= 1
        assert caches["baseline_sweep_ms"] > 0
        assert caches["accounted_sweep_ms"] > 0
        assert math.isfinite(caches["accounting_overhead_pct"])

    def test_covers_every_workload_query(self, perf):
        assert set(perf["benchmarks"]) == set(PERF_QUERIES)

    def test_per_benchmark_keys(self, perf):
        for name, bench in perf["benchmarks"].items():
            assert bench["runs"] == 2
            assert bench["rows"] >= 0
            assert bench["throughput_qps"] > 0
            assert set(bench["latency_ms"]) == {"mean", "p50", "p95", "p99", "max"}
            assert bench["qerror_max"] >= 1.0 and math.isfinite(bench["qerror_max"])
            assert bench["rewrite_kinds"], name

    def test_qerror_summary(self, perf):
        q = perf["qerror"]
        assert q["count"] > 0
        assert 1.0 <= q["p50"] <= q["max"]
        assert math.isfinite(q["mean"])

    def test_report_is_json_serializable(self, perf):
        json.loads(json.dumps(perf))


def run_gate(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(GATE), *args], capture_output=True, text=True
    )


def write_report(path: Path, perf: dict) -> Path:
    path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "perf": perf}))
    return path


class TestPerfGate:
    def test_identical_reports_pass(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        rep = write_report(tmp_path / "rep.json", perf)
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "perf-gate: PASS" in proc.stdout

    def test_doctored_throughput_regression_fails(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        doctored = copy.deepcopy(perf)
        for bench in doctored["benchmarks"].values():
            bench["throughput_qps"] /= 10.0
        rep = write_report(tmp_path / "rep.json", doctored)
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "perf-gate: FAIL" in proc.stdout
        assert "throughput" in proc.stdout

    def test_shape_only_ignores_doctored_numbers(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        doctored = copy.deepcopy(perf)
        for bench in doctored["benchmarks"].values():
            bench["throughput_qps"] /= 100.0
        rep = write_report(tmp_path / "rep.json", doctored)
        proc = run_gate("--baseline", str(base), "--report", str(rep), "--shape-only")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "shape-only" in proc.stdout

    def test_missing_benchmark_fails_even_shape_only(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        pruned = copy.deepcopy(perf)
        pruned["benchmarks"].popitem()
        rep = write_report(tmp_path / "rep.json", pruned)
        proc = run_gate("--baseline", str(base), "--report", str(rep), "--shape-only")
        assert proc.returncode == 1
        assert "missing from report" in proc.stdout

    def test_newer_report_schema_is_usage_error(self, perf, tmp_path):
        """A report schema ahead of the baseline means the baseline is
        stale, not that perf regressed — exit 2 with the remediation."""
        base = write_report(tmp_path / "base.json", perf)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1, "perf": perf}))
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert "newer than baseline" in proc.stderr
        assert "--update-baseline" in proc.stderr

    def test_newer_report_schema_update_baseline_adopts_it(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"schema_version": SCHEMA_VERSION + 1, "perf": perf}))
        proc = run_gate(
            "--baseline", str(base), "--report", str(rep), "--update-baseline"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(base.read_text()) == json.loads(rep.read_text())

    def test_older_report_schema_fails_the_diff(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"schema_version": SCHEMA_VERSION - 1, "perf": perf}))
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 1
        assert "schema_version" in proc.stdout

    def test_introspection_over_budget_fails_even_shape_only(self, perf, tmp_path):
        """The overhead budget is absolute (within one report), so it
        stays active when the cross-report diffs are shape-only."""
        base = write_report(tmp_path / "base.json", perf)
        bloated = copy.deepcopy(perf)
        bloated["introspection"]["overhead_pct"] = 50.0
        rep = write_report(tmp_path / "rep.json", bloated)
        proc = run_gate("--baseline", str(base), "--report", str(rep), "--shape-only")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "introspection_overhead" in proc.stdout

    def test_introspection_budget_is_configurable(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        bloated = copy.deepcopy(perf)
        bloated["introspection"]["overhead_pct"] = 50.0
        rep = write_report(tmp_path / "rep.json", bloated)
        proc = run_gate(
            "--baseline", str(base), "--report", str(rep),
            "--shape-only", "--introspection-max-pct", "60",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_caches_over_budget_fails_even_shape_only(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        bloated = copy.deepcopy(perf)
        bloated["caches"]["accounting_overhead_pct"] = 50.0
        rep = write_report(tmp_path / "rep.json", bloated)
        proc = run_gate("--baseline", str(base), "--report", str(rep), "--shape-only")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "accounting_overhead" in proc.stdout

    def test_caches_budget_is_configurable(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        bloated = copy.deepcopy(perf)
        bloated["caches"]["accounting_overhead_pct"] = 50.0
        rep = write_report(tmp_path / "rep.json", bloated)
        proc = run_gate(
            "--baseline", str(base), "--report", str(rep),
            "--shape-only", "--caches-max-pct", "60",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_qerror_regression_fails(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        worse = copy.deepcopy(perf)
        name = next(iter(worse["benchmarks"]))
        worse["benchmarks"][name]["qerror_max"] += 10.0
        rep = write_report(tmp_path / "rep.json", worse)
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 1
        assert "qerror_max" in proc.stdout

    def test_missing_perf_section_is_usage_error(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        rep = tmp_path / "rep.json"
        rep.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
        proc = run_gate("--baseline", str(base), "--report", str(rep))
        assert proc.returncode == 2
        assert "no 'perf' section" in proc.stderr

    def test_update_baseline_copies_report(self, perf, tmp_path):
        base = write_report(tmp_path / "base.json", perf)
        changed = copy.deepcopy(perf)
        changed["benchmarks"][next(iter(changed["benchmarks"]))]["rows"] += 1
        rep = write_report(tmp_path / "rep.json", changed)
        proc = run_gate(
            "--baseline", str(base), "--report", str(rep), "--update-baseline"
        )
        assert proc.returncode == 0
        assert json.loads(base.read_text()) == json.loads(rep.read_text())

    def test_committed_baseline_matches_schema(self):
        baseline = json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())
        assert baseline["schema_version"] == SCHEMA_VERSION
        assert set(baseline["perf"]["benchmarks"]) == set(PERF_QUERIES)
