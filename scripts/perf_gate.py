#!/usr/bin/env python
"""Diff a fresh BENCH_report.json against the committed BENCH_baseline.json.

The gate compares the ``perf`` section of two reports produced by
``python -m repro.bench --perf-only --json ...`` (see ``make perf-report``)
and fails when the fresh report regresses beyond the tolerances:

* schema checks (always): matching ``schema_version``, every baseline
  benchmark present in the report, per-benchmark keys intact;
* throughput: each benchmark's ``throughput_qps`` must reach at least
  ``(1 - --throughput-tolerance)`` of the baseline;
* plan quality: each benchmark's ``qerror_max`` must not exceed the
  baseline by more than ``--qerror-tolerance`` (absolute slack);
* introspection: the report's ``introspection.overhead_pct`` (live
  registry progress counters + structured event log, on vs off) must not
  exceed ``--introspection-max-pct``. This is an absolute budget against
  the fresh report — not a baseline diff — so it stays active under
  ``--shape-only``;
* cache accounting: the report's ``caches.accounting_overhead_pct``
  (per-insert deep sizing of cached artifacts, on vs off over a serving
  lifecycle) must not exceed ``--caches-max-pct`` — an absolute budget
  like the introspection one, active under ``--shape-only``.

``--shape-only`` skips the two numeric checks — shared CI runners have
wildly variable clocks, so CI proves the report's *shape* while local
runs (and perf-focused PRs) compare the numbers. ``--update-baseline``
copies the report over the baseline after a passing shape check.

Exit status: 0 all checks pass, 1 regression or shape mismatch,
2 usage/IO error — including a report whose ``schema_version`` is newer
than the baseline's (the committed baseline predates the code; regenerate
it with ``--update-baseline`` rather than diffing mismatched shapes).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REQUIRED_BENCH_KEYS = (
    "runs",
    "rows",
    "throughput_qps",
    "latency_ms",
    "qerror_max",
)


def load_perf(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if "perf" not in report:
        raise ValueError(f"{path}: no 'perf' section (run: make perf-report)")
    return report


def check(baseline: dict, report: dict, args) -> list[tuple[str, str, bool, str]]:
    """Return rows of (benchmark, check, ok, detail)."""
    rows: list[tuple[str, str, bool, str]] = []
    b_perf, r_perf = baseline["perf"], report["perf"]

    same_schema = baseline.get("schema_version") == report.get("schema_version")
    rows.append(
        (
            "<report>",
            "schema_version",
            same_schema,
            f"baseline={baseline.get('schema_version')} report={report.get('schema_version')}",
        )
    )
    if not same_schema:
        return rows

    intro = r_perf.get("introspection") or {}
    overhead = intro.get("overhead_pct")
    present = isinstance(overhead, (int, float))
    rows.append(
        (
            "<report>",
            "introspection",
            present,
            "overhead_pct present" if present else "missing introspection.overhead_pct",
        )
    )
    if present:
        # An absolute budget on the fresh report — a within-process ratio,
        # stable enough to enforce even on shared (shape-only) runners.
        ok = overhead <= args.introspection_max_pct
        rows.append(
            (
                "<report>",
                "introspection_overhead",
                ok,
                f"{overhead:.2f}% vs budget {args.introspection_max_pct:.2f}%",
            )
        )

    caches = r_perf.get("caches") or {}
    acct = caches.get("accounting_overhead_pct")
    present = isinstance(acct, (int, float))
    rows.append(
        (
            "<report>",
            "caches",
            present,
            "accounting_overhead_pct present"
            if present
            else "missing caches.accounting_overhead_pct",
        )
    )
    if present:
        ok = acct <= args.caches_max_pct
        rows.append(
            (
                "<report>",
                "accounting_overhead",
                ok,
                f"{acct:.2f}% vs budget {args.caches_max_pct:.2f}%",
            )
        )

    for name, base in sorted(b_perf["benchmarks"].items()):
        fresh = r_perf["benchmarks"].get(name)
        if fresh is None:
            rows.append((name, "present", False, "missing from report"))
            continue
        missing = [k for k in REQUIRED_BENCH_KEYS if k not in fresh]
        rows.append(
            (name, "keys", not missing, f"missing {missing}" if missing else "all present")
        )
        if missing or args.shape_only:
            continue

        floor = base["throughput_qps"] * (1.0 - args.throughput_tolerance)
        ok = fresh["throughput_qps"] >= floor
        rows.append(
            (
                name,
                "throughput",
                ok,
                f"{fresh['throughput_qps']:.1f} q/s vs floor {floor:.1f}"
                f" (baseline {base['throughput_qps']:.1f})",
            )
        )

        ceiling = base["qerror_max"] + args.qerror_tolerance
        ok = fresh["qerror_max"] <= ceiling
        rows.append(
            (
                name,
                "qerror_max",
                ok,
                f"{fresh['qerror_max']:.2f} vs ceiling {ceiling:.2f}"
                f" (baseline {base['qerror_max']:.2f})",
            )
        )
    return rows


def render(rows: list[tuple[str, str, bool, str]]) -> str:
    widths = (
        max(len(r[0]) for r in rows),
        max(len(r[1]) for r in rows),
        4,
    )
    out = [
        f"{'benchmark':<{widths[0]}}  {'check':<{widths[1]}}  {'ok':<{widths[2]}}  detail",
        f"{'-' * widths[0]}  {'-' * widths[1]}  {'-' * widths[2]}  {'-' * 6}",
    ]
    for name, what, ok, detail in rows:
        mark = "PASS" if ok else "FAIL"
        out.append(f"{name:<{widths[0]}}  {what:<{widths[1]}}  {mark:<{widths[2]}}  {detail}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_baseline.json", type=Path)
    parser.add_argument("--report", default="BENCH_report.json", type=Path)
    parser.add_argument(
        "--throughput-tolerance",
        type=float,
        default=0.6,
        help="allowed fractional throughput drop per benchmark (default 0.6; "
        "wide because shared machines show ~2x wall-clock swings — the gate "
        "targets multi-x regressions, CI uses --shape-only)",
    )
    parser.add_argument(
        "--qerror-tolerance",
        type=float,
        default=0.5,
        help="allowed absolute increase of per-benchmark qerror_max (default 0.5)",
    )
    parser.add_argument(
        "--introspection-max-pct",
        type=float,
        default=5.0,
        help="maximum allowed introspection.overhead_pct in the fresh report "
        "(default 5.0; enforced even under --shape-only — it is a "
        "within-process ratio, not a wall-clock comparison across runs)",
    )
    parser.add_argument(
        "--caches-max-pct",
        type=float,
        default=5.0,
        help="maximum allowed caches.accounting_overhead_pct in the fresh "
        "report (default 5.0; enforced even under --shape-only, same "
        "reasoning as the introspection budget)",
    )
    parser.add_argument(
        "--shape-only",
        action="store_true",
        help="check schema and coverage only; skip timing comparisons (CI mode)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="after a passing shape check, copy the report over the baseline",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_perf(args.baseline)
        report = load_perf(args.report)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"perf-gate: {exc}", file=sys.stderr)
        return 2

    b_schema = baseline.get("schema_version")
    r_schema = report.get("schema_version")
    if isinstance(b_schema, int) and isinstance(r_schema, int) and r_schema > b_schema:
        # A newer report schema means the committed baseline predates this
        # code; diffing mismatched shapes would only produce misleading
        # failures. With --update-baseline the fresh report (after a
        # self-contained shape check) becomes the new baseline; otherwise
        # fail loudly with the remediation.
        if args.update_baseline:
            broken = {
                name: [k for k in REQUIRED_BENCH_KEYS if k not in bench]
                for name, bench in report["perf"]["benchmarks"].items()
                if any(k not in bench for k in REQUIRED_BENCH_KEYS)
            }
            if broken:
                print(
                    f"perf-gate: report schema v{r_schema} is missing keys "
                    f"{broken}; not adopting it as baseline",
                    file=sys.stderr,
                )
                return 2
            shutil.copyfile(args.report, args.baseline)
            print(
                f"perf-gate: baseline adopted report schema v{r_schema} "
                f"(was v{b_schema}); commit {args.baseline}"
            )
            return 0
        print(
            f"perf-gate: report schema v{r_schema} is newer than baseline "
            f"schema v{b_schema}; regenerate the baseline "
            "(make perf-gate PERF_GATE_FLAGS=--update-baseline) and commit it",
            file=sys.stderr,
        )
        return 2

    rows = check(baseline, report, args)
    print(render(rows))
    failed = [r for r in rows if not r[2]]
    if failed:
        print(f"\nperf-gate: FAIL ({len(failed)} check(s) failed)")
        return 1
    mode = "shape-only" if args.shape_only else "full"
    print(f"\nperf-gate: PASS ({len(rows)} checks, {mode})")
    if args.update_baseline:
        shutil.copyfile(args.report, args.baseline)
        print(f"perf-gate: baseline updated from {args.report}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
