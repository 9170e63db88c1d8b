"""Cardinality feedback: estimate-vs-actual q-error for analyzed plans.

The optimizer ranks plans with the structural estimates of
:mod:`repro.engine.stats`; EXPLAIN ANALYZE (:mod:`repro.engine.analyze`)
measures what actually happened. This module closes the loop, in the
cardinality-feedback lineage of Leis et al., *How Good Are Query
Optimizers, Really?* (VLDB 2015): every operator of an analyzed run is
paired with its compile-time estimate, the **q-error** — the
factor-of-misestimation ``max(est/act, act/est)`` — is computed per
operator, and the distribution is aggregated into a
:class:`~repro.server.metrics.MetricsRegistry` by operator kind and by the
Table 2 rewrite verdict that produced the plan.

The q-error convention here floors both sides at 1.0 row before dividing
(:func:`q_error`), so the metric is always finite, always ≥ 1, and an
exact estimate scores exactly 1.0 — empty actuals (a filter that kept
nothing) don't explode the ratio, they compare as one row.

Consumers:

* ``explain_analyze`` renders ``est=… act=… q=…`` per operator;
* :func:`record_run` feeds the registry histograms (``qerror``,
  ``qerror_by_op``, ``qerror_by_rewrite``) that the Prometheus exposition
  (:mod:`repro.server.exposition`) serves;
* :func:`top_misestimates` picks the worst offenders for the slow-query
  log, so a slow entry carries *why* the optimizer got the plan wrong;
* the process-global :data:`FEEDBACK` registry collects every analyzed
  run of this process (``run_query(analyze=True)``,
  ``PreparedQuery.analyze``) for the ``repro metrics`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.server.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analyze renders q)
    from repro.engine.analyze import AnalyzedRun, OpStats

__all__ = [
    "q_error",
    "op_kind",
    "OpFeedback",
    "feedback_entries",
    "top_misestimates",
    "record_run",
    "FEEDBACK",
    "clear_feedback",
]

#: Both sides of the q-error ratio are floored at one row: estimates are
#: already ≥ 1 by construction in repro.engine.stats, and flooring the
#: actual keeps empty results finite (an "estimated 50, produced 0" plan
#: scores q=50, not infinity).
QERROR_FLOOR = 1.0


def q_error(est: float, act: float) -> float:
    """The factor by which *est* misjudged *act*: ``max(est/act, act/est)``.

    Symmetric (over- and under-estimation score alike), always finite,
    and ≥ 1.0 with equality exactly when the floored sides agree.
    """
    e = max(float(est), QERROR_FLOOR)
    a = max(float(act), QERROR_FLOOR)
    return e / a if e >= a else a / e


def op_kind(op) -> str:
    """A stable aggregation key for a physical operator.

    Joins split by mode (``join_inner`` … ``join_nest``) because their
    estimation errors have different causes and consequences; everything
    else aggregates by operator class (``scan``, ``filter``, ``nest``, …).
    """
    from repro.engine.physical import PJoin

    if isinstance(op, PJoin):
        return f"join_{op.mode}"
    name = type(op).__name__
    if name.startswith("P"):
        name = name[1:]
    return name.lower()


@dataclass(frozen=True)
class OpFeedback:
    """One operator's estimate-vs-actual verdict from one analyzed run."""

    kind: str
    describe: str
    est: float
    act: int
    q: float

    def to_dict(self) -> dict:
        return {
            "op": self.describe,
            "kind": self.kind,
            "est": self.est,
            "act": self.act,
            "q": self.q,
        }


def feedback_entries(run: "AnalyzedRun") -> list[OpFeedback]:
    """Per-operator feedback for every operator that ran in an analyzed run.

    An operator that never ran (the right child of a join whose build side
    came from the cache, and everything below it) produced no actual, so
    it is left out rather than scored as if it had produced nothing.
    """
    entries: list[OpFeedback] = []

    def walk(stats: "OpStats") -> None:
        if not stats.executed:
            return
        op = stats.op
        entries.append(
            OpFeedback(
                kind=op_kind(op),
                describe=op.describe(),
                est=float(op.est_rows),
                act=stats.rows,
                q=q_error(op.est_rows, stats.rows),
            )
        )
        for child in stats.children:
            walk(child)

    walk(run.stats)
    return entries


def top_misestimates(
    source: "AnalyzedRun" | Sequence[OpFeedback], k: int = 3
) -> list[OpFeedback]:
    """The *k* worst-estimated operators, most-misestimated first.

    Operators whose estimate was exact (q == 1.0) are excluded — they
    explain nothing. Accepts either an analyzed run or precomputed
    entries.
    """
    entries = source if isinstance(source, (list, tuple)) else feedback_entries(source)
    offenders = [e for e in entries if e.q > 1.0]
    offenders.sort(key=lambda e: e.q, reverse=True)
    return offenders[: max(0, k)]


#: Process-global feedback registry: every analyzed run in this process
#: (CLI --analyze, PreparedQuery.analyze, run_query(analyze=True))
#: aggregates here, so ``repro metrics`` can expose a whole workload's
#: plan quality without a serving layer.
FEEDBACK = MetricsRegistry()


def clear_feedback() -> None:
    """Reset the process-global feedback registry (tests, CLI workloads)."""
    global FEEDBACK
    FEEDBACK = MetricsRegistry()


def record_run(
    run: "AnalyzedRun",
    rewrite_kinds: Iterable[str] = (),
    registry: MetricsRegistry | None = None,
) -> list[OpFeedback]:
    """Aggregate one analyzed run's q-errors into *registry*.

    Observes, per operator, the overall ``qerror`` histogram and the
    ``qerror_by_op`` family keyed by :func:`op_kind`; per Table 2 rewrite
    verdict in *rewrite_kinds* (``semijoin`` / ``antijoin`` / ``nestjoin``
    / ``flat`` / ``interpreted``), the ``qerror_by_rewrite`` family
    records the plan's *worst* operator q-error — the quantity that
    decides whether the classifier's choice was backed by honest
    cardinalities. Returns the per-operator entries for further use
    (slow-log attachment, reporting). Defaults to the process-global
    :data:`FEEDBACK` registry.
    """
    reg = registry if registry is not None else FEEDBACK
    entries = feedback_entries(run)
    overall = reg.histogram("qerror")
    by_op = reg.labeled_histogram("qerror_by_op")
    for entry in entries:
        overall.observe(entry.q)
        by_op.observe(entry.kind, entry.q)
    worst = max((e.q for e in entries), default=1.0)
    by_rewrite = reg.labeled_histogram("qerror_by_rewrite")
    for kind in rewrite_kinds:
        by_rewrite.observe(kind, worst)
    reg.counter("analyzed_runs").inc()
    return entries
