"""Request and response shapes of the query service.

A :class:`QueryRequest` carries the query text, optional values for its
``$name`` parameters, and an optional per-request timeout. Parameters are
values of the language (:mod:`repro.lang.params`), never spliced into the
text: one parameterised text is one plan for all its bindings.
A :class:`QueryResponse` reports a structured outcome plus timing and
cache-attribution metadata — enough for a client to know not just the
answer but how the service produced it (fresh execution, result-cache hit,
or coalesced onto a concurrent identical execution) and at which catalog
version it is valid.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["QueryRequest", "QueryResponse"]

_REQUEST_IDS = itertools.count(1)


@dataclass
class QueryRequest:
    """One unit of work for the query service."""

    query: str
    params: Mapping[str, object] | None = None
    #: Seconds from submission to deadline; None falls back to the
    #: service's default_timeout (which may itself be None: no deadline).
    timeout: float | None = None
    request_id: str = field(default_factory=lambda: f"q{next(_REQUEST_IDS):06d}")


@dataclass
class QueryResponse:
    """The structured answer to one :class:`QueryRequest`.

    ``outcome`` is one of ``"ok"``, ``"timeout"``, ``"cancelled"``
    (explicitly cancelled mid-flight — admin cancel via
    ``POST /queries/<id>/cancel`` or a direct ``CancelToken.cancel`` —
    as opposed to a deadline lapse), ``"rejected"``, or ``"error"``;
    ``value`` is the result set for ``"ok"`` and None otherwise.
    ``result_cache`` attributes where the answer came from: ``"miss"``
    (this request executed the plan), ``"hit"`` (served from the result
    cache), or ``"coalesced"`` (waited on a concurrent identical
    execution). ``request_id`` doubles as the ``query_id`` correlating
    this request across the structured event log
    (:mod:`repro.core.log`), the live registry's ``/queries`` snapshots,
    and the slow-query log.
    """

    request_id: str
    outcome: str
    value: frozenset | None = None
    error: str | None = None
    #: Catalog data version the answer is consistent with (ok responses
    #: are version-stable: the version did not move during execution).
    catalog_version: int | None = None
    attempts: int = 0
    result_cache: str | None = None
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    total_seconds: float = 0.0
    worker: str | None = None
    #: Identity of this request's service-side trace (see repro.core.trace);
    #: correlates the response with the slow-query log and metrics.
    trace_id: str | None = None
    #: Join kinds the translator chose for the served plan (semijoin /
    #: antijoin / nestjoin, or "flat"/"interpreted"); empty when the
    #: request never reached execution (e.g. a result-cache hit).
    rewrite_kinds: tuple = ()
    #: The top-k misestimated operators (dicts with op/kind/est/act/q)
    #: when this request's leader execution was sampled for cardinality
    #: feedback; empty for cache hits, coalesced followers, and unsampled
    #: executions. See repro.engine.feedback.
    misestimates: tuple = ()
    #: How the answer was produced: "batch" (a compiled plan) or
    #: "interpreted" (no plan). Cache hits and coalesced followers carry
    #: the label of the leader execution that produced the memoized value.
    exec_mode: str | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def to_dict(self) -> dict:
        """JSON-serializable summary (row count instead of the value)."""
        return {
            "request_id": self.request_id,
            "outcome": self.outcome,
            "rows": len(self.value) if self.value is not None else None,
            "error": self.error,
            "catalog_version": self.catalog_version,
            "attempts": self.attempts,
            "result_cache": self.result_cache,
            "queue_seconds": self.queue_seconds,
            "execute_seconds": self.execute_seconds,
            "total_seconds": self.total_seconds,
            "worker": self.worker,
            "trace_id": self.trace_id,
            "rewrite_kinds": list(self.rewrite_kinds),
            "misestimates": list(self.misestimates),
            "exec_mode": self.exec_mode,
        }
