"""Every import of the system under test, in one place, resolved on first use.

The end-to-end paths need only the first block of `_ENTRY`: the front door of
the `repro` package with its default execution options. The second block names
one public function per layer, which the traced pass times from outside. The
third block is optional: when such an entry point is gone or has moved,
`optional` returns None and the per-layer metric that needs it reports 0 with
an `absent` note, so a PR that deletes a subsystem needs no benchmark edit.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_ENTRY = {
    # end-to-end surface
    "run_query": "repro:run_query",
    "prepared": "repro:prepared",
    "Catalog": "repro:Catalog",
    "Tup": "repro:Tup",
    "Variant": "repro:Variant",
    "clear_plan_cache": "repro:clear_plan_cache",
    "plan_cache_stats": "repro:plan_cache_stats",
    "clear_build_cache": "repro.engine.cache:clear_build_cache",
    "make_join_workload": "repro.workloads:make_join_workload",
    "make_chain_workload": "repro.workloads:make_chain_workload",
    "make_company": "repro.workloads:make_company",
    "queries": "repro.workloads:queries",
    "QueryService": "repro.server:QueryService",
    "QueryRequest": "repro.server:QueryRequest",
    # one public function per layer, timed by the traced pass
    "parse": "repro.lang.parser:parse",
    "type_of": "repro.lang.typing:type_of",
    "TypeEnv": "repro.lang.typing:TypeEnv",
    "pretty": "repro.lang.pretty:pretty",
    "translate_query": "repro.core.unnest:translate_query",
    "optimize_logical": "repro.algebra.rewrite:optimize_logical",
    "compile_plan": "repro.engine.physical:compile_plan",
    "execute_set": "repro.engine.executor:execute_set",
    # optional
    "run_physical": "repro.engine.executor:run_physical",
    "build_cache_stats": "repro.engine.cache:build_cache_stats",
    "BUILD_CACHE": "repro.engine.cache:BUILD_CACHE",
    "compare": "repro.model.compare:compare",
    "shutdown_pools": "repro.parallel.pool:shutdown_pools",
}


@functools.cache
def load(name: str):
    """The entry point called *name*; raises if the system no longer has it."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmark: no system under test at {src / 'repro'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    module, attr = _ENTRY[name].split(":")
    return getattr(importlib.import_module(module), attr)


def optional(name: str):
    """Like `load`, but None when the entry point is gone."""
    try:
        return load(name)
    except (ImportError, AttributeError):
        return None


def clear_caches() -> None:
    load("clear_plan_cache")()
    load("clear_build_cache")()


# The stages of `run_query`, called one by one. `staged_query` must stay a
# faithful copy of what `run_query` does with default options:
# `harness.stage_sum_vs_e2e_ratio` compares the two and the decomposition is
# only trusted while it stays within 0.9 to 1.1.
STAGES = (
    "lang.parse",
    "lang.typecheck",
    "core.translate",
    "algebra.rewrite",
    "engine.compile",
    "engine.execute",
)


def staged_query(text: str, catalog):
    """Run *text* stage by stage; returns (value, seven timestamps).

    Stage *i* ran from `stamps[i]` to `stamps[i + 1]`.
    """
    parse, type_of, type_env = load("parse"), load("type_of"), load("TypeEnv")
    translate, optimize = load("translate_query"), load("optimize_logical")
    compile_plan, execute_set = load("compile_plan"), load("execute_set")
    clock = time.perf_counter
    t0 = clock()
    ast = parse(text)
    t1 = clock()
    type_of(ast, type_env.with_tables(catalog.row_types()))
    t2 = clock()
    translation = translate(ast, catalog)
    t3 = clock()
    if translation is None:
        # No plan for this shape: the system interprets it, which is all
        # execution. No text of the benchmark takes this branch today.
        value = load("run_query")(text, catalog).value
        t6 = clock()
        return value, (t0, t1, t2, t3, t3, t3, t6)
    plan = optimize(translation.plan)
    t4 = clock()
    physical = compile_plan(plan, catalog)
    t5 = clock()
    value = execute_set(physical, catalog)
    t6 = clock()
    return value, (t0, t1, t2, t3, t4, t5, t6)


def plainer():
    """A function turning model values into plain data for `reference.py`.

    Tuples become `reference.Rec` (a hashable dict), sets stay frozensets,
    variants become `("variant", tag, payload)`. The conversion reads fields
    only: it never hashes or compares a model value, so the check that follows
    does not depend on the model layer's own equality. One tuple object
    converts to one Rec object for as long as the returned function lives,
    which keeps a 64x check affordable: a query answer mostly holds the very
    row objects of its tables. Keep the converted inputs alive that long too.
    """
    from reference import Rec

    tup, variant = load("Tup"), load("Variant")
    memo: dict[int, Rec] = {}

    def convert(v):
        if isinstance(v, tup):
            rec = memo.get(id(v))
            if rec is None:
                rec = memo[id(v)] = Rec((k, convert(x)) for k, x in v.as_dict().items())
            return rec
        if isinstance(v, frozenset):
            return frozenset(map(convert, v))
        if isinstance(v, variant):
            return ("variant", v.tag, convert(v.value))
        if isinstance(v, (list, tuple)):
            return tuple(map(convert, v))
        return v

    return convert


def paper_queries() -> dict[str, str]:
    """name -> text of the seven paper queries, in sweep order."""
    from reference import PAPER

    queries = load("queries")
    return {name: getattr(queries, name.upper()) for name in PAPER}
