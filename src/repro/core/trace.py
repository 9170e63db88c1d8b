"""End-to-end query tracing: structured rewrite-decision and phase records.

The paper's contribution is a *decision procedure* — Theorem 1 / Table 2
picks a semijoin, antijoin, or nest join per nested block.  This module
makes those decisions observable: translation code emits structured
:class:`TraceEvent`\\s (which Table 2 row matched, the verdict, the rule
that fired, before/after plan fingerprints) into a per-query
:class:`QueryTrace`, and the execution layers add timed phase spans
(parse, typecheck, translate, rewrite, compile, execute).

Collection is *ambient*: a trace is installed in a thread-local slot with
:func:`trace_scope` and emitters call :func:`emit`, which is a no-op when
no trace is installed — the pipeline pays one thread-local read per
potential event, and nothing per row.  The design mirrors
:mod:`repro.engine.cancel`, and like cancellation it composes with the
query service's worker threads: each request traces into its own object.

Traces render as text (:meth:`QueryTrace.render`) or export to the Chrome
``trace_event`` JSON format (:func:`chrome_trace`) loadable in
``chrome://tracing`` / Perfetto; operator-level spans from an
``EXPLAIN ANALYZE`` run (:mod:`repro.engine.analyze`) slot into the same
timeline.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "TraceEvent",
    "QueryTrace",
    "trace_scope",
    "current_trace",
    "emit",
    "span",
    "plan_fingerprint",
    "chrome_trace",
]

_TRACE_IDS = itertools.count(1)


@dataclass
class TraceEvent:
    """One structured trace record.

    ``phase`` names the pipeline stage that emitted it (``normalize``,
    ``classify``, ``translate``, ``rewrite``, ``compile``, ``execute``);
    ``rule`` the specific decision (``table2:in``, ``semijoin``,
    ``selection-pushdown``, …).  Classification events carry the matched
    Table 2 row and the EXISTS/NOT_EXISTS/GROUPING ``verdict``; rewrite
    events carry ``before``/``after`` plan fingerprints.  ``ts`` is the
    offset from the trace's creation in seconds; ``dur`` is non-zero for
    phase spans.
    """

    phase: str
    rule: str
    detail: str = ""
    verdict: str | None = None
    table2_row: str | None = None
    before: str | None = None
    after: str | None = None
    ts: float = 0.0
    dur: float = 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form with None fields elided."""
        out = {"phase": self.phase, "rule": self.rule, "ts": self.ts}
        if self.dur:
            out["dur"] = self.dur
        for key in ("detail", "verdict", "table2_row", "before", "after"):
            value = getattr(self, key)
            if value:
                out[key] = value
        return out


@dataclass
class QueryTrace:
    """The ordered event log of one query's trip through the pipeline."""

    query: str = ""
    trace_id: str = field(default_factory=lambda: f"t{next(_TRACE_IDS):06d}")
    created: float = field(default_factory=time.perf_counter)
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> None:
        self.events.append(event)

    def record(self, phase: str, rule: str, **kw) -> TraceEvent:
        """Append an event stamped with the current offset."""
        event = TraceEvent(
            phase=phase, rule=rule, ts=time.perf_counter() - self.created, **kw
        )
        self.events.append(event)
        return event

    # -- queries over the log ------------------------------------------------
    def rules(self, phase: str | None = None) -> list[str]:
        """The rule names in emission order, optionally for one phase."""
        return [e.rule for e in self.events if phase is None or e.phase == phase]

    def verdicts(self) -> list[str]:
        """The classifier's verdicts (one per classified conjunct)."""
        return [
            e.verdict
            for e in self.events
            if e.phase == "classify" and e.verdict is not None
        ]

    def rewrite_kinds(self) -> list[str]:
        """The join kinds chosen by translation (semijoin/antijoin/nestjoin)."""
        return [
            e.rule
            for e in self.events
            if e.phase == "translate" and "join" in e.rule
        ]

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "query": self.query,
            "events": [e.to_dict() for e in self.events],
        }

    def render(self) -> str:
        """A human-readable account, one line per event."""
        lines = [f"trace {self.trace_id}: {self.query}"]
        # Span events are appended at scope exit; present chronologically.
        for e in sorted(self.events, key=lambda e: e.ts):
            parts = [f"  {e.ts * 1e3:8.3f}ms  [{e.phase}] {e.rule}"]
            if e.dur:
                parts.append(f"({e.dur * 1e3:.3f}ms)")
            if e.table2_row:
                parts.append(f"table2={e.table2_row}")
            if e.verdict:
                parts.append(f"verdict={e.verdict}")
            if e.before or e.after:
                parts.append(f"plan {e.before or '-'} -> {e.after or '-'}")
            if e.detail:
                parts.append(f"— {e.detail}")
            lines.append(" ".join(parts))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Ambient collection (thread-local, zero-overhead when off)
# ---------------------------------------------------------------------------

_local = threading.local()


def current_trace() -> QueryTrace | None:
    """The trace installed in this thread's scope, or None."""
    return getattr(_local, "trace", None)


@contextmanager
def trace_scope(trace: QueryTrace | None):
    """Install *trace* for the current thread for the duration of the block.

    Scopes nest: the previous trace (if any) is restored on exit, so a
    sub-preparation (e.g. the oracle cross-check inside a benchmark) can
    trace separately without disturbing its caller.
    """
    previous = getattr(_local, "trace", None)
    _local.trace = trace
    try:
        yield trace
    finally:
        _local.trace = previous


def emit(phase: str, rule: str, **kw) -> None:
    """Record an event on the ambient trace; no-op when tracing is off."""
    trace = getattr(_local, "trace", None)
    if trace is not None:
        trace.record(phase, rule, **kw)


@contextmanager
def span(phase: str, rule: str = "", **kw):
    """Record a timed phase span on the ambient trace (no-op when off)."""
    trace = getattr(_local, "trace", None)
    if trace is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        trace.add(
            TraceEvent(
                phase=phase,
                rule=rule or phase,
                ts=start - trace.created,
                dur=time.perf_counter() - start,
                **kw,
            )
        )


def plan_fingerprint(plan) -> str:
    """A short stable fingerprint of a logical plan's shape.

    Hashes the EXPLAIN rendering, so alpha-equal plans printed identically
    share a fingerprint and any structural change produces a new one.
    """
    from repro.algebra.pretty import explain_plan

    return hashlib.sha1(explain_plan(plan).encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Chrome trace_event export
# ---------------------------------------------------------------------------


def _chrome_event(
    name: str, cat: str, ts: float, dur: float | None, args: dict, tid: int
) -> dict:
    event = {
        "name": name,
        "cat": cat,
        "ph": "X" if dur is not None else "i",
        "ts": round(ts * 1e6, 3),  # trace_event timestamps are microseconds
        "pid": 1,
        "tid": tid,
        "args": args,
    }
    if dur is not None:
        event["dur"] = round(dur * 1e6, 3)
    else:
        event["s"] = "t"  # instant event scoped to its thread
    return event


def chrome_trace(trace: QueryTrace, analyzed=None) -> dict:
    """Export *trace* (and optionally an analyzed run) as Chrome trace JSON.

    Returns the ``{"traceEvents": [...]}`` object form.  Pipeline phase
    spans and instant decision events go on pid 1 / tid 1; per-operator
    execution spans from *analyzed* (an
    :class:`repro.engine.analyze.AnalyzedRun`) go on tid 2, nested by
    start time and duration.
    """
    events: list[dict] = []
    for e in trace.events:
        args = {
            k: v
            for k, v in e.to_dict().items()
            if k not in ("phase", "rule", "ts", "dur")
        }
        events.append(
            _chrome_event(e.rule, e.phase, e.ts, e.dur if e.dur else None, args, tid=1)
        )
    if analyzed is not None:
        base = analyzed.stats.started if analyzed.stats.started else trace.created

        def walk(stats) -> None:
            start = (stats.started - base) if stats.started else 0.0
            args = {
                "rows_out": stats.rows,
                "rows_in": stats.rows_in,
                "est_rows": stats.op.est_rows,
            }
            if stats.cache_hits or stats.cache_misses:
                args["cache_hits"] = stats.cache_hits
                args["cache_misses"] = stats.cache_misses
            if stats.peak_group is not None:
                args["peak_group"] = stats.peak_group
            events.append(
                _chrome_event(
                    stats.op.describe(), "operator", start, stats.seconds, args, tid=2
                )
            )
            for child in stats.children:
                walk(child)

        walk(analyzed.stats)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace.trace_id, "query": trace.query},
    }
