"""Run the full experiment suite: ``python -m repro.bench [E3 E7 ...]``.

``--json PATH`` additionally writes a machine-readable report wrapped in
the stable perf schema (``schema_version``, ``experiments``, ``perf``) —
the ``make perf-report`` target uses it to produce ``BENCH_report.json``
for ``scripts/perf_gate.py``. ``--perf`` adds the timed workload
benchmarks of :mod:`repro.bench.perf` to the report; ``--perf-only``
skips the (slower) paper experiments and emits just that section.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.experiments import EXPERIMENTS
from repro.bench.perf import SCHEMA_VERSION, collect_perf


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench", description=__doc__)
    parser.add_argument("experiments", nargs="*", help="experiment keys (default: all)")
    parser.add_argument("--json", metavar="PATH", help="also write a JSON report to PATH")
    parser.add_argument(
        "--perf",
        action="store_true",
        help="include the timed workload benchmarks (throughput/latency/q-error)",
    )
    parser.add_argument(
        "--perf-only",
        action="store_true",
        help="run only the timed workload benchmarks, skipping the experiments",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=30,
        help="timed executions per workload query in the perf section (default 30)",
    )
    args = parser.parse_args(argv)

    experiments = {}
    if not args.perf_only:
        wanted = [a.upper() for a in args.experiments] or list(EXPERIMENTS)
        unknown = [w for w in wanted if w not in EXPERIMENTS]
        if unknown:
            print(f"unknown experiments: {unknown}; available: {list(EXPERIMENTS)}")
            return 2
        for key in wanted:
            title, fn = EXPERIMENTS[key]
            start = time.perf_counter()
            table = fn()
            elapsed = time.perf_counter() - start
            print()
            print(table.render())
            experiments[key] = {
                "title": title,
                "seconds": elapsed,
                "table": {
                    "title": table.title,
                    "columns": list(table.columns),
                    "rows": [[_jsonable(v) for v in row] for row in table.rows],
                    "notes": list(table.notes),
                },
            }

    perf = None
    if args.perf or args.perf_only:
        perf = collect_perf(repeats=args.repeats)
        _print_perf(perf)

    report = {"schema_version": SCHEMA_VERSION, "experiments": experiments}
    if perf is not None:
        report["perf"] = perf
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        sections = f"{len(experiments)} experiments" + (", perf" if perf else "")
        print(f"\nwrote {args.json} ({sections})", file=sys.stderr)
    return 0


def _print_perf(perf: dict) -> None:
    print("\nworkload perf (schema v%d)" % perf["schema_version"])
    for name, bench in perf["benchmarks"].items():
        lat = bench["latency_ms"]
        print(
            f"  {name:24s} {bench['throughput_qps']:10.1f} q/s"
            f"  p50={lat['p50']:.3f}ms p95={lat['p95']:.3f}ms"
            f"  qerr_max={bench['qerror_max']:.2f}"
        )
    q = perf["qerror"]
    print(f"  q-error: n={q['count']} mean={q['mean']:.2f} p95={q['p95']:.2f} max={q['max']:.2f}")
    intro = perf.get("introspection")
    if intro:
        print(
            f"  introspection: overhead={intro['overhead_pct']:+.2f}%"
            f"  (sweep {intro['baseline_sweep_ms']:.1f}ms off"
            f" / {intro['instrumented_sweep_ms']:.1f}ms on)"
        )


def _jsonable(v):
    if isinstance(v, (bool, int, float, str)) or v is None:
        return v
    return str(v)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
