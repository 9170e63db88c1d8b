"""Plan-level fuzzing: random operator trees on every join algorithm.

The query fuzzer only reaches plan shapes the translator emits; this suite
generates arbitrary well-formed plans (outer-join + ν* chains, stacked
Unnest, Distinct towers, Drop of nested attributes) and checks that the
physical engine — under every forced join algorithm and under cost-based
selection, at batch sizes that split the inputs (1, 7) and one that does
not (1024) — agrees with the reference executor as a multiset.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.interpreter import run_logical
from repro.algebra.rewrite import optimize_logical
from repro.algebra.typing import check_plan
from repro.engine.executor import run_physical
from repro.testing import random_catalog, random_plan

ALGORITHMS = ("nested_loop", "hash", "sort_merge", "index_nested_loop")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 1_000_000), batch_size=st.sampled_from((1, 7, 1024)))
def test_random_plans_agree_across_algorithms(seed, batch_size):
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_rows=6)
    plan = random_plan(rng)
    reference = Counter(run_logical(plan, catalog))
    for algo in ALGORITHMS + (None,):  # None: cost-based
        got = run_physical(plan, catalog, force_algorithm=algo, batch_size=batch_size)
        assert Counter(got) == reference, algo


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_random_plans_survive_rewriting(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_rows=6)
    plan = random_plan(rng)
    rewritten = optimize_logical(plan)
    assert Counter(run_logical(rewritten, catalog)) == Counter(run_logical(plan, catalog))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 1_000_000))
def test_random_plans_type_check(seed):
    rng = random.Random(seed)
    catalog = random_catalog(rng, max_rows=4)
    plan = random_plan(rng)
    check_plan(plan, catalog.row_types())


def test_generator_is_deterministic_and_varied():
    plans = [random_plan(random.Random(s)) for s in range(40)]
    again = [random_plan(random.Random(s)) for s in range(40)]
    assert plans == again
    assert len(set(plans)) > 25
