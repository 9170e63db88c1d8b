"""Batch/interpreter parity: every workload query, any batch size.

The property the engine must uphold: for every workload query and every
batch size — including the degenerate size 1 and sizes that misalign
with the data (7) — execution produces exactly the output multiset of
the reference executor (:func:`repro.algebra.interpreter.run_logical`),
under the cost-based algorithm choice and under every forced join
algorithm. The catalog is small so the whole grid stays fast.
"""

from collections import Counter

import pytest

from repro.algebra.interpreter import result_set, run_logical
from repro.bench.perf import PERF_QUERIES
from repro.core.pipeline import prepared
from repro.engine.executor import execute, execute_set
from repro.engine.physical import JOIN_ALGORITHMS, compile_plan
from repro.server.workload import mixed_catalog

BATCH_SIZES = (1, 7, 64, 1024)


@pytest.fixture(scope="module")
def catalog():
    return mixed_catalog(seed=0, n_left=40, n_right=180, n_chain=10)


@pytest.fixture(scope="module")
def reference(catalog):
    return {
        name: run_logical(prepared(text, catalog).plan, catalog)
        for name, text in PERF_QUERIES.items()
    }


@pytest.mark.parametrize("batch_size", BATCH_SIZES)
@pytest.mark.parametrize("algorithm", (None,) + JOIN_ALGORITHMS)
def test_workload_queries_match_the_interpreter(catalog, reference, algorithm, batch_size):
    for name, text in PERF_QUERIES.items():
        plan = prepared(text, catalog).plan
        physical = compile_plan(plan, catalog, force_algorithm=algorithm)
        rows = execute(physical, catalog, batch_size=batch_size)
        assert Counter(rows) == Counter(reference[name]), (name, algorithm, batch_size)
        assert execute_set(physical, catalog, batch_size=batch_size) == result_set(
            reference[name]
        ), (name, algorithm, batch_size)
