"""Physical plan execution entry points.

Operators exchange fixed-size column batches through
:meth:`~repro.engine.physical.PhysicalOp.run_batches`; the functions
here drain the root operator into a row list or straight into a set.

Execution is cooperatively cancellable: when a
:class:`~repro.engine.cancel.CancelToken` is installed for the current
thread (see :func:`~repro.engine.cancel.cancel_scope`), operators and the
output loops here poll it once per batch, so a deadline set by the query
service bounds how long a plan can run.
"""

from __future__ import annotations

from typing import Mapping

from repro.algebra.plan import Plan
from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.engine.cancel import current_token
from repro.engine.physical import PhysicalOp, compile_plan
from repro.errors import PlanError
from repro.model.values import Tup

__all__ = ["run_physical", "execute", "execute_set"]


def run_physical(
    plan: Plan,
    catalog: Mapping,
    force_algorithm: str | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[Tup]:
    """Compile *plan* (choosing join algorithms) and run it to a row list."""
    physical = compile_plan(plan, catalog, force_algorithm)
    return execute(physical, catalog, batch_size=batch_size)


def execute(
    physical: PhysicalOp,
    catalog: Mapping,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> list[Tup]:
    """Run an already compiled physical operator tree to a row list."""
    token = current_token()
    out: list[Tup] = []
    extend = out.extend
    for batch in physical.run_batches(catalog, batch_size):
        if token is not None:
            token.check(batch.live, "output")
        extend(batch.to_tups())
    return out


def execute_set(
    physical: PhysicalOp,
    catalog: Mapping,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> frozenset:
    """Run a plan whose rows carry exactly one binding, straight to a set.

    This is the serving path's terminal step: the pipeline collapses
    single-binding rows to the bound values
    (:func:`repro.algebra.interpreter.result_set`). The values are
    already a column, so the set is built directly from it — no binding
    tuple is ever constructed for output rows.
    """
    token = current_token()
    values: set = set()
    update = values.update
    for batch in physical.run_batches(catalog, batch_size):
        if token is not None:
            token.check(batch.live, "output")
        if len(batch.columns) != 1:
            raise PlanError(
                f"result rows bind {sorted(batch.columns)}; expected exactly one variable"
            )
        (col,) = batch.columns.values()
        sel = batch.sel
        if sel is None:
            update(col)
        else:
            update(map(col.__getitem__, sel))
    return frozenset(values)
