"""repro — a reproduction of *Optimization of Nested Queries in a Complex
Object Model* (Steenhagen, Apers, Blanken; EDBT 1994).

The library provides, end to end:

* the **TM complex-object data model** (:mod:`repro.model`): tuple / set /
  list / variant values and types, schemas with classes and sorts;
* a **TM-like SFW query language** (:mod:`repro.lang`): parser, type
  checker, and a nested-loop interpreter that defines the semantics;
* a **complex-object algebra** (:mod:`repro.algebra`) including the paper's
  **nest join** operator and its algebraic laws;
* the **predicate classifier** and **unnesting translator**
  (:mod:`repro.core`): Theorem 1 / Table 2 as a decision procedure that
  turns nested queries into semijoin / antijoin / nest-join plans;
* a **physical engine** (:mod:`repro.engine`) with nested-loop, hash, and
  sort-merge implementations of all five join modes and a cost-based
  algorithm selector;
* the **relational baselines** (:mod:`repro.baselines`): Kim's algorithm
  (exhibiting the COUNT bug), the Ganski–Wong outerjoin fix, and
  Muralikrishna's antijoin-predicate fix;
* **workload generators** (:mod:`repro.workloads`) for the paper's
  examples; the tests and ``benchmarks/test_paper_shapes.py`` check every
  table and worked example of the paper (DESIGN.md §4), and
  ``benchmarks/suite`` measures the system.

Quickstart::

    from repro import Catalog, Tup, run_query

    catalog = Catalog()
    catalog.add_rows("R", [Tup(b=0, c=9), Tup(b=1, c=1)])
    catalog.add_rows("S", [Tup(c=1, d=1)])

    result = run_query(
        "SELECT r FROM R r WHERE r.b = COUNT(SELECT s FROM S s WHERE r.c = s.c)",
        catalog,
    )
    # Both rows survive: the nest join keeps the dangling r with b = 0.
    assert len(result.value) == 2
"""

from repro.core.pipeline import (
    PreparedQuery,
    QueryResult,
    clear_plan_cache,
    explain_query,
    plan_cache_stats,
    prepare,
    prepared,
    run_query,
)
from repro.engine.table import Catalog, Table
from repro.errors import ReproError
from repro.lang.parser import parse, parse_query
from repro.model.values import NULL, Tup, Variant, make_value

__version__ = "1.0.0"

__all__ = [
    "run_query",
    "explain_query",
    "prepare",
    "prepared",
    "PreparedQuery",
    "plan_cache_stats",
    "clear_plan_cache",
    "QueryResult",
    "Catalog",
    "Table",
    "Tup",
    "Variant",
    "NULL",
    "make_value",
    "parse",
    "parse_query",
    "ReproError",
    "__version__",
]
