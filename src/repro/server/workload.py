"""A mixed serving workload: the paper's query set over one combined catalog.

Builds a single catalog holding all three example universes — the
relational R/S pair (COUNT bug), the X/Y/Z chain (SUBSETEQ bug and the
Section 8 linear query), and the company EMP/DEPT extensions (Q1/Q2) — so
one service instance can be hammered with every query shape the repo
knows, plus a parameterized point lookup that shares one plan across all
its bindings. Everything is seeded and deterministic.
"""

from __future__ import annotations

import random

from repro.engine.table import Catalog
from repro.server.request import QueryRequest
from repro.workloads import (
    COUNT_BUG_NESTED,
    Q1_SAME_STREET,
    Q2_EMPS_BY_CITY,
    SECTION8_FLAT_VARIANT,
    SECTION8_QUERY,
    SUBSETEQ_BUG_NESTED,
    UNNEST_COLLAPSE,
    make_chain_workload,
    make_company,
    make_join_workload,
)

__all__ = ["PARAM_LOOKUP", "MIXED_QUERIES", "mixed_catalog", "make_requests"]

#: A parameterized point lookup on the R relation: one plan-cache entry for
#: every $key, one result-cache key per bound value.
PARAM_LOOKUP = "SELECT r FROM R r WHERE r.a = $key"

#: The unparameterized part of the mix: every worked example of the paper.
MIXED_QUERIES = (
    COUNT_BUG_NESTED,
    Q1_SAME_STREET,
    Q2_EMPS_BY_CITY,
    SUBSETEQ_BUG_NESTED,
    SECTION8_QUERY,
    SECTION8_FLAT_VARIANT,
    UNNEST_COLLAPSE,
)


def mixed_catalog(
    seed: int = 0,
    n_left: int = 200,
    n_right: int = 1200,
    n_chain: int = 40,
    n_departments: int = 8,
    n_employees: int = 80,
) -> Catalog:
    """One catalog with R/S, X/Y/Z, and EMP/DEPT, sized for fast oracles.

    The default sizes keep the interpreter oracle affordable (it is
    quadratic in the worst shapes) while leaving warm physical execution
    per request in the sub-millisecond-to-millisecond range.
    """
    combined = Catalog()
    join = make_join_workload(n_left=n_left, n_right=n_right, fanout=3, seed=seed)
    chain = make_chain_workload(
        n_x=n_chain, n_y=n_chain, n_z=n_chain, set_size=1, seed=seed + 1
    )
    company = make_company(
        n_departments=n_departments, n_employees=n_employees, seed=seed + 2
    )
    for source in (join.catalog, chain, company):
        for name in source:
            combined.add(source[name])
    return combined


def make_requests(
    n: int,
    seed: int = 0,
    n_left: int = 200,
    param_share: float = 0.25,
    timeout: float | None = None,
) -> list[QueryRequest]:
    """*n* seeded requests sampled from the mixed query set.

    ``param_share`` of them are parameterized lookups with keys drawn from
    the R key domain (so most hit, some select nothing); the rest cycle
    through :data:`MIXED_QUERIES` in a shuffled order.
    """
    rng = random.Random(seed)
    requests: list[QueryRequest] = []
    for _ in range(n):
        if rng.random() < param_share:
            key = rng.randrange(int(n_left * 1.1) + 1)
            requests.append(
                QueryRequest(PARAM_LOOKUP, params={"key": key}, timeout=timeout)
            )
        else:
            requests.append(
                QueryRequest(rng.choice(MIXED_QUERIES), timeout=timeout)
            )
    return requests
