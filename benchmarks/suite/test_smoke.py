"""Smoke test of the benchmark itself:
`PYTHONPATH=src python -m pytest benchmarks/suite/test_smoke.py` (the conftest.py
one directory up imports `repro`).

Not part of the repository's tier-1 tests (`testpaths` is `tests`); it takes
about forty seconds.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
SPEC = json.loads((SUITE.parents[1] / "BENCHMARK.json").read_text())


def test_quick_run_prints_every_metric():
    done = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--quick", "--workload", "adhoc_cold"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout
    printed = {
        name: float(value)
        for name, value in re.findall(r"^\S+ (\S+) = (\S+) ", done.stdout, flags=re.MULTILINE)
    }
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["name"] in printed, metric["name"]
        assert math.isfinite(printed[metric["name"]]), metric["name"]
    assert printed["failed_ratio"] == 0
