"""Live query introspection: the active-query registry.

Every request a :class:`~repro.server.service.QueryService` admits is
registered here for the duration of its execution as an
:class:`ActiveQuery` — query id, query text, parameters, start time,
the operator that last reported progress, and a rows
processed / estimated pair whose quotient is the *progress fraction*.

**How progress flows in.** The entry itself is the progress sink
installed on the request's :class:`~repro.engine.cancel.CancelToken`:
physical operators already poll the token once per column batch, and
those polls carry the rows processed since the previous poll straight
into :meth:`ActiveQuery.advance` — an attribute bump on the hot path
only when a sink is installed.

**The denominator.** ``estimated_rows`` is
:func:`repro.engine.stats.estimated_work` over the compiled physical
tree — the sum of per-operator cardinality estimates, i.e. exactly the
numbers the cost model planned with and EXPLAIN ANALYZE audits via
q-error. The fraction is therefore an estimate: it is clamped to
``MIDFLIGHT_PROGRESS_CAP`` while the query runs (a misestimate must not
show a "finished" query that is still running) and snaps to 1.0 only
when the query completes successfully.

**Admin cancel.** Each entry keeps the request's token, so
:meth:`ActiveQueryRegistry.cancel` stops the operators' batch loops at
their next poll.

Finished queries move into a bounded ``recent`` ring (kept out of the
live set) so ``repro top`` and tests can see a query's final progress
shape after it left the registry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Mapping

__all__ = ["ActiveQuery", "ActiveQueryRegistry", "MIDFLIGHT_PROGRESS_CAP"]

#: A running query's progress fraction never reports at or above 1.0 —
#: cardinality misestimates routinely undershoot the real work, and a
#: live entry pinned at "100%" while still running reads as a hang.
MIDFLIGHT_PROGRESS_CAP = 0.99

#: Finished entries retained for inspection (``repro top``'s RECENT pane).
RECENT_CAPACITY = 64


class ActiveQuery:
    """One admitted request's live state; also its progress sink.

    ``advance`` is called from the single thread executing the query,
    so the counters are single-writer; readers (``/queries`` scrapes,
    ``repro top``) see a consistent monotone value under the GIL without
    taking a lock on the hot path.
    """

    __slots__ = (
        "query_id",
        "query",
        "params",
        "trace_id",
        "exec_mode",
        "started_at",
        "_started_mono",
        "deadline",
        "token",
        "state",
        "rows_processed",
        "estimated_rows",
        "current_op",
        "finished_seconds",
    )

    def __init__(
        self,
        query_id: str,
        query: str,
        params: Mapping | None = None,
        trace_id: str | None = None,
        exec_mode: str | None = None,
        token=None,
        deadline: float | None = None,
    ):
        self.query_id = query_id
        self.query = query
        self.params = dict(params) if params else {}
        self.trace_id = trace_id
        self.exec_mode = exec_mode
        #: Wall-clock admission instant (``time.time``), for display.
        self.started_at = time.time()
        self._started_mono = time.monotonic()
        #: Absolute monotonic deadline, mirrored off the token (or None).
        self.deadline = deadline
        #: The request's :class:`~repro.engine.cancel.CancelToken`.
        self.token = token
        #: ``"running"`` while live; the outcome slug once finished.
        self.state = "running"
        self.rows_processed = 0
        #: :func:`repro.engine.stats.estimated_work` total, or None until
        #: the service has a compiled plan to estimate from.
        self.estimated_rows: float | None = None
        self.current_op: str | None = None
        self.finished_seconds: float | None = None

    # -- progress sink (the CancelToken.check hot path) ----------------------
    def advance(self, rows: int, op: str | None = None) -> None:
        """Credit *rows* of processed work, optionally stamping the operator."""
        self.rows_processed += rows
        if op is not None:
            self.current_op = op

    # -- derived -------------------------------------------------------------
    @property
    def progress(self) -> float:
        """Estimated completion fraction in [0, 1]; exactly 1.0 only when done."""
        if self.state == "ok":
            return 1.0
        if not self.estimated_rows:
            return 0.0
        fraction = self.rows_processed / self.estimated_rows
        return min(MIDFLIGHT_PROGRESS_CAP, fraction)

    def elapsed(self) -> float:
        if self.finished_seconds is not None:
            return self.finished_seconds
        return time.monotonic() - self._started_mono

    def cancel(self, reason: str = "cancelled by admin") -> bool:
        """Request cancellation through the query's token (False if untracked)."""
        if self.token is None:
            return False
        self.token.cancel(reason)
        return True

    def finish(self, outcome: str) -> None:
        self.finished_seconds = time.monotonic() - self._started_mono
        self.state = outcome

    def snapshot(self) -> dict:
        """A JSON-ready view (the ``/queries`` wire shape)."""
        remaining = self.token.remaining() if self.token is not None else None
        return {
            "query_id": self.query_id,
            "query": self.query,
            "params": dict(self.params),
            "trace_id": self.trace_id,
            "exec_mode": self.exec_mode,
            "state": self.state,
            "started_at": self.started_at,
            "elapsed_seconds": self.elapsed(),
            "remaining_seconds": remaining,
            "rows_processed": self.rows_processed,
            "estimated_rows": self.estimated_rows,
            "progress": self.progress,
            "current_op": self.current_op,
        }


class ActiveQueryRegistry:
    """Thread-safe map of in-flight queries plus a ring of recent ones."""

    def __init__(self, recent_capacity: int = RECENT_CAPACITY):
        self._lock = threading.Lock()
        self._active: dict[str, ActiveQuery] = {}
        self._recent: deque = deque(maxlen=recent_capacity)

    def register(
        self,
        query_id: str,
        query: str,
        params: Mapping | None = None,
        trace_id: str | None = None,
        exec_mode: str | None = None,
        token=None,
        deadline: float | None = None,
    ) -> ActiveQuery:
        """Track a newly admitted request; installs the progress sink.

        Returns the live entry. The token (when given) gets this entry
        as its ``progress`` sink so operator polls start crediting rows
        immediately.
        """
        entry = ActiveQuery(
            query_id,
            query,
            params=params,
            trace_id=trace_id,
            exec_mode=exec_mode,
            token=token,
            deadline=deadline,
        )
        if token is not None:
            token.progress = entry
        with self._lock:
            self._active[query_id] = entry
        return entry

    def finish(self, query_id: str, outcome: str) -> ActiveQuery | None:
        """Move a query out of the live set, stamping its final outcome."""
        with self._lock:
            entry = self._active.pop(query_id, None)
            if entry is not None:
                entry.finish(outcome)
                self._recent.append(entry)
        return entry

    def get(self, query_id: str) -> ActiveQuery | None:
        with self._lock:
            return self._active.get(query_id)

    def cancel(self, query_id: str, reason: str = "cancelled by admin") -> bool:
        """Cancel a live query by id; False when unknown or untracked."""
        entry = self.get(query_id)
        if entry is None:
            return False
        return entry.cancel(reason)

    def __len__(self) -> int:
        with self._lock:
            return len(self._active)

    def active(self) -> list[ActiveQuery]:
        with self._lock:
            return list(self._active.values())

    def snapshot(self) -> dict:
        """JSON-ready ``{"active": [...], "recent": [...]}`` (the wire shape).

        Active entries are ordered by admission (oldest first); recent
        ones oldest-finished first.
        """
        with self._lock:
            active = [e.snapshot() for e in self._active.values()]
            recent = [e.snapshot() for e in self._recent]
        active.sort(key=lambda e: e["started_at"])
        return {"active": active, "recent": recent}
