"""The repository benchmark. See README.md beside this file.

Two ways to call it:

    python benchmarks/suite/run.py [--seed N] [--workload NAME] [--traced] [--check] [--quick]

runs each workload in a fresh process, then the traced pass, and prints every
metric by name with its unit; and, as the benchmark driver calls it,

    python benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

makes one run in this process and prints its result as one JSON object on the
last line: the end-to-end metrics of NAME with `--trace 0`, every per-layer
metric with `--trace 1`.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import adapters as sut
import layers
from measure import Window, speed
from workloads import WORKLOADS

OUT = sut.ROOT / "benchmarks" / "suite" / "out"

#: Unit -> power of time in it: how a probe's figure scales with machine speed.
TIME_POWER = {"s": 1, "ms": 1, "ns": 1, "us/krow": 1, "1/s": -1}
#: Set-up runs this often in an untraced run; `setup_s` is the median.
SETUPS = 3
#: Share of a traced run's seconds that each workload's untraced window gets;
#: its traced window gets the rest.
UNTRACED_SHARE = 0.4


@functools.cache
def spec() -> dict:
    return json.loads((sut.ROOT / "BENCHMARK.json").read_text())


def header(args) -> None:
    load = ", ".join(f"{x:.2f}" for x in os.getloadavg())
    print(
        f"# nproc={os.cpu_count()} python={platform.python_version()} loadavg={load} "
        f"seed={args.seed} seconds={args.seconds}"
    )


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    setups = []
    for attempt in range(SETUPS):
        workload = WORKLOADS[name](seed)
        before, start = speed(), time.perf_counter()
        workload.setup()
        setups.append((time.perf_counter() - start) * (before + speed()) / 2)
        if attempt < SETUPS - 1:
            workload.close()
    try:
        window = Window(workload, seconds)
        workload.finish()
    finally:
        workload.close()
    values, notes = window.end_to_end()
    values["setup_s"] = statistics.median(setups)
    notes["setup_s"] = f"median of {SETUPS}: " + " ".join(f"{s:.3f}" for s in setups)
    return {
        "attempted": window.attempted + workload.wrong,
        "failed": window.failed + workload.wrong,
        "values": values,
        "notes": notes,
    }


def run_traced(seed: int, seconds: float) -> dict:
    """Every workload briefly, without then with spans, then the probes."""
    values: dict[str, float] = {}
    absent: list[str] = []
    attempted = failed = 0
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    share = seconds / len(WORKLOADS)
    kept = {}
    for name, make in WORKLOADS.items():
        workload = kept[name] = make(seed)
        workload.setup()
        try:
            untraced = Window(workload, share * UNTRACED_SHARE)
            traced = Window(workload, share * (1 - UNTRACED_SHARE), traced=True)
            workload.finish()
            values.update(layers.from_windows(workload, untraced, traced))
        finally:
            workload.close()
        write_trace(workload, traced, seed)
        attempted += untraced.attempted + traced.attempted + workload.wrong
        failed += untraced.failed + traced.failed + workload.wrong
    warm_64x = {
        query: values[f"engine.exec_warm_ms.{query}"] / 1e3 for query in sut.paper_queries()
    }
    for probe in (
        lambda: layers.probe_texts(kept["adhoc_cold"]),
        lambda: layers.probe_1x(seed, absent),
        lambda: layers.probe_tiers(seed, warm_64x, absent),
        lambda: layers.probe_model(seed),
        lambda: layers.probe_parallel(kept["warm_prepared"], absent),
    ):
        # A probe takes a second or two: the machine's speed just before and
        # just after it restates its times at nominal speed.
        before = speed()
        found = probe()
        factor = (before + speed()) / 2
        values.update({name: value * factor ** TIME_POWER.get(units[name], 0) for name, value in found.items()})
    return {
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "notes": {},
        "absent": absent,
    }


def write_trace(workload, window, seed: int) -> None:
    """All clients' spans in one list, parents re-indexed, with each op's class."""
    spans, classes = [], {}
    for rec in window.recordings:
        offset = len(spans)
        for name, start, end, parent, op_id in rec.tracer.spans:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, op_id])
        classes.update((i * rec.clients + rec.client, cls) for i, cls in enumerate(rec.cls))
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{workload.name}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": seed,
                "fields": ["name", "start_s", "end_s", "parent", "op_id"],
                "op_class": classes,
                "spans": spans,
            }
        )
    )


#: (metric, lower limit, upper limit, what it shows)
PREDICTIONS = (
    ("harness.frontend_share_pct.adhoc_cold", 50, 100, "adhoc_cold is front-end work"),
    ("harness.frontend_share_pct.warm_prepared", 0, 5, "warm_prepared is not"),
    ("harness.execute_share_pct.serve_mixed", 0, 25, "serve_mixed is service work, not plans"),
    ("harness.mutation_share_pct.mutate_and_query", 20, 100, "mutations and rebuilds count"),
    ("harness.stage_sum_vs_e2e_ratio", 0.9, 1.1, "the staged pipeline costs what run_query does"),
)


def emit(result: dict, kind: str, label: str) -> int:
    """Print the metrics of *kind* by name, then the result line; the exit code."""
    units = {m["name"]: m["unit"] for m in spec()[kind]}
    values = result["values"]
    if values.keys() != units.keys():
        sys.exit(
            f"benchmark: metrics differ from BENCHMARK.json: "
            f"{sorted(values.keys() ^ units.keys())}"
        )
    for name, value in values.items():
        if not math.isfinite(value):
            sys.exit(f"benchmark: {name} is {value}")
        note = result["notes"].get(name)
        print(f"{label} {name} = {value:.6g} {units[name]}" + (f"   ({note})" if note else ""))
    ratio = result["failed"] / result["attempted"]
    print(f"{label} failed_ratio = {ratio:.6g} ratio   ({result['failed']} of {result['attempted']})")
    for line in result.get("absent", ()):
        print(f"{label} absent: {line}")
    if kind == "per_layer":
        for name, low, high, meaning in PREDICTIONS:
            mark = "PASS" if low <= values[name] <= high else "FAIL"
            print(f"{label} {mark} {low} <= {name} = {values[name]:.4g} <= {high}: {meaning}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
            }
        )
    )
    return 1 if result["failed"] else 0


# -- the human entry point: one process per run --------------------------------


def child(args, name: str, trace: int) -> dict:
    """One run in a fresh process; its output is passed on, its last line parsed."""
    command = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"benchmark: {' '.join(command)} printed no result (exit {done.returncode})")
    return json.loads(lines[-1])


def full_set(args) -> dict[str, dict]:
    """run name -> result, for the chosen workloads and, unless skipped, the traced pass."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    if not args.traced:
        for name in names:
            results[name] = child(args, name, 0)
    results["traced"] = child(args, names[0], 1)
    return results


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse *second* is than *first*, as a share of *first*."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


#: Per-layer metrics that must repeat exactly between two runs of one seed.
EXACT = ("core.join_kind_count.", "algebra.rewrite_changed_ratio", "workloads.catalog_rows")


def check(first: dict[str, dict], second: dict[str, dict]) -> bool:
    """A/A: two full sets of the same tree must agree within the bounds."""
    agreed = True
    print("# A/A check: workload metric first second worse-by bound")
    for name in (run for run in first if run != "traced"):
        for metric in spec()["end_to_end"]:
            a, b = (r[name]["metrics"][metric["name"]]["value"] for r in (first, second))
            worse = max(worse_by(metric, a, b), worse_by(metric, b, a))
            ok = worse <= metric["bound"]
            agreed &= ok
            print(
                f"{'ok  ' if ok else 'FAIL'} {name} {metric['name']} {a:.6g} {b:.6g} "
                f"{worse:+.2%} {metric['bound']:.0%}"
            )
    for metric, entry in first["traced"]["metrics"].items():
        if metric.startswith(EXACT) and entry != second["traced"]["metrics"][metric]:
            agreed = False
            print(f"FAIL {metric} differs: {entry} {second['traced']['metrics'][metric]}")
    return agreed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one run in this process")
    parser.add_argument("--traced", action="store_true", help="only the traced pass")
    parser.add_argument("--check", action="store_true", help="run the set twice and compare")
    parser.add_argument("--quick", action="store_true", help="3 s windows; not for claims")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes differ from one process to the next and with them the
        # collisions in every dict and set of tuples: that alone moved
        # throughput by 5 to 10% between runs of one seed. Start again with
        # hashing fixed; exec replaces this process, it does not add one.
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    if args.quick:
        args.seconds = 3.0
        print("# --quick: smoke run, NOT FOR CLAIMS")
    header(args)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        if args.trace:
            return emit(run_traced(args.seed, args.seconds), "per_layer", "traced")
        result = run_untraced(args.workload, args.seed, args.seconds)
        return emit(result, "end_to_end", args.workload)
    first = full_set(args)
    failed = any(not result["correct"] for result in first.values())
    if args.check:
        failed |= not check(first, full_set(args))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
