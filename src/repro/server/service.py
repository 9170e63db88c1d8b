"""The concurrent query service: workers, admission control, deadlines.

:class:`QueryService` turns the PR-1 prepared-query layer into a shared,
multi-threaded serving endpoint. Requests flow through:

1. **Admission** — :meth:`QueryService.submit` places the request on a
   bounded queue. A full queue sheds the request immediately
   (:class:`~repro.errors.RejectedError`), bounding memory and tail
   latency under overload instead of building an unbounded backlog.
2. **Scheduling** — a fixed pool of worker threads drains the queue in
   FIFO order. All workers share the process-wide prepared-plan cache,
   the build-side cache, and this service's result cache.
3. **Execution** — the worker prepares the query text (plan cache; one
   plan per parameterised text), binds the parameter values for this run
   (:mod:`repro.lang.params`), and runs it under a
   :class:`~repro.engine.cancel.CancelToken` carrying the request
   deadline; physical operators poll the token at
   iteration boundaries, so a timed-out request stops mid-plan instead of
   running to completion.
4. **Consistency** — the catalog's data version is read before and after
   execution; if a mutation landed mid-flight the attempt raises
   :class:`CatalogVersionRace` and is retried with exponential backoff.
   ``ok`` responses are therefore *version-stable*: the value is the
   answer at one catalog version, never a blend of two.
5. **Result reuse** — version-stable results are memoized in an LRU keyed
   by (query text, parameter values, catalog version), and concurrent
   identical requests *coalesce*: one leader executes, followers wait on its
   result. Under repetitive traffic this, not thread parallelism, is
   where the throughput multiple comes from (the GIL serializes the
   Python execution itself; see docs/serving.md).

Every completed request is recorded in a :class:`~repro.server.metrics.MetricsRegistry`
(:meth:`QueryService.stats`) and stamped with a trace id; the service keeps
a bounded :class:`~repro.server.slowlog.SlowQueryLog` of the N slowest
served requests (with their rewrite-decision traces) plus every rejected
or deadline-exceeded one, exposed as ``stats()["slow_queries"]``. A
labeled counter ``queries_by_rewrite`` counts leader executions by the
translator's join choice. Response hooks registered with
:meth:`QueryService.add_hook` observe each (request, response) pair — the
natural attachment point for a continuous differential-testing oracle.
"""

from __future__ import annotations

import itertools
import queue as queue_mod
import threading
import time
from typing import Callable, Iterable, Mapping

from repro.core.log import emit_event, events_snapshot
from repro.core.pipeline import prepared, set_plan_cache_budget
from repro.core.trace import QueryTrace
from repro.engine.cache import (
    LRUCache,
    default_budget_bytes,
    set_build_cache_budget,
)
from repro.engine.cachereg import CACHE_REGISTRY, caches_snapshot, register_cache
from repro.engine.cancel import CancelToken, cancel_scope
from repro.engine.stats import estimated_work
from repro.errors import CancelledError, RejectedError, ReproError
from repro.lang.params import bind_values, param_scope
from repro.model.types import type_of_value
from repro.server.registry import ActiveQueryRegistry
from repro.server.request import QueryRequest, QueryResponse
from repro.server.slowlog import SlowQueryLog

__all__ = ["QueryService", "PendingQuery", "CatalogVersionRace"]


class CatalogVersionRace(ReproError):
    """The catalog's data version moved while a request was executing."""


class _LeaderCancelled(Exception):
    """Internal: a coalesced execution's leader was cancelled.

    A follower that inherits the leader's ``CancelledError`` was not
    itself cancelled — its deadline may have plenty left — so instead of
    surfacing someone else's cancellation it raises this marker and
    :meth:`QueryService._execute_with_retry` re-attempts the query (the
    follower becomes the new leader). Never escapes the service.
    """


class PendingQuery:
    """A submitted request's future response."""

    def __init__(self, request: QueryRequest):
        self.request = request
        self._event = threading.Event()
        self._response: QueryResponse | None = None
        # Stamped by submit():
        self.enqueued_at: float = 0.0
        self.deadline: float | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> QueryResponse:
        """Block until the response arrives (raises TimeoutError if not)."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id} not completed within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def _fulfil(self, response: QueryResponse) -> None:
        self._response = response
        self._event.set()


class _InFlight:
    """A leader's execution that identical concurrent requests wait on."""

    __slots__ = ("event", "value", "error", "exec_mode", "waiters")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: frozenset | None = None
        self.error: BaseException | None = None
        self.exec_mode: str | None = None
        #: Followers coalesced onto this execution (bumped under the
        #: service's in-flight lock); read when the entry is dropped to
        #: warn about waiters orphaned by a cancelled leader.
        self.waiters = 0


_SENTINEL = object()


class QueryService:
    """A thread-pooled query-serving endpoint over one catalog.

    Usable as a context manager; otherwise the first :meth:`submit` starts
    the workers and :meth:`stop` drains and joins them.

    Tuning knobs (all constructor arguments) are documented in
    docs/serving.md; the defaults favor tests and small deployments.
    """

    def __init__(
        self,
        catalog,
        workers: int = 4,
        queue_limit: int = 64,
        default_timeout: float | None = None,
        max_attempts: int = 4,
        backoff_base: float = 0.002,
        result_cache_size: int = 256,
        cache_budget_mb: float | None = None,
        typecheck: bool = True,
        slow_query_capacity: int = 16,
        feedback_every: int = 7,
        feedback_top_k: int = 3,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        if feedback_every < 0:
            raise ValueError("feedback_every must be >= 0 (0 disables feedback)")
        self.catalog = catalog
        self.workers = workers
        self.queue_limit = queue_limit
        self.default_timeout = default_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.typecheck = typecheck
        self._queue: "queue_mod.Queue" = queue_mod.Queue(maxsize=max(0, queue_limit))
        # Byte budget: an explicit cache_budget_mb wins, otherwise the
        # REPRO_CACHE_BUDGET_MB environment default. The budget is
        # per-cache and an explicit argument is pushed down onto the
        # process-wide plan and build caches too, so one constructor knob
        # bounds every cache a service touches (see docs/observability.md).
        if cache_budget_mb is not None:
            budget = int(cache_budget_mb * 1024 * 1024) if cache_budget_mb > 0 else None
            set_plan_cache_budget(budget)
            set_build_cache_budget(budget)
        else:
            budget = default_budget_bytes()
        self.cache_budget_bytes = budget
        self._results = LRUCache(
            result_cache_size,
            max_bytes=budget,
            name="result",
            describe_key=_result_key_identity,
        )
        # Last-registered wins: the snapshot describes the newest service's
        # result cache, matching one-service-per-process deployments.
        register_cache("result", self._results.report)
        self._inflight: dict = {}
        self._inflight_lock = threading.Lock()
        self._hooks: list[Callable[[QueryRequest, QueryResponse], None]] = []
        self._threads: list[threading.Thread] = []
        self._state_lock = threading.Lock()
        self._started = False
        self._closed = False
        self.slow_queries = SlowQueryLog(slow_query_capacity)
        #: Live introspection: every admitted request is tracked here for
        #: the duration of its execution — progress fraction, current
        #: operator, and an admin-cancel handle (see docs/observability.md
        #: and the ``/queries`` endpoint on the metrics server).
        self.registry = ActiveQueryRegistry()
        #: Every feedback_every-th leader execution runs instrumented
        #: (EXPLAIN ANALYZE) and feeds the q-error histograms; 0 disables.
        #: Instrumented runs cost a few times plain execution, so the
        #: default samples (1 = analyze every leader, for tests/smoke).
        self.feedback_every = feedback_every
        self.feedback_top_k = feedback_top_k
        self._feedback_tick = itertools.count(1)
        from repro.server.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        # Queries by the translator's rewrite decision (semijoin/antijoin/
        # nestjoin/flat/interpreted), counted once per leader execution.
        self.metrics.labeled_counter("queries_by_rewrite")
        # Served responses by how the answer was produced (batch/interpreted).
        self.metrics.labeled_counter("queries_by_exec_mode")
        # Cardinality-feedback instruments (see repro.engine.feedback):
        # pre-created so stats() and the /metrics exposition always carry
        # the families, even before the first analyzed execution.
        self.metrics.histogram("qerror")
        self.metrics.labeled_histogram("qerror_by_op")
        self.metrics.labeled_histogram("qerror_by_rewrite")
        # Pre-create every counter so stats() always has the full shape,
        # even for paths a given run never exercised.
        for name in (
            "submitted",
            "admitted",
            "shed",
            "completed",
            "ok",
            "timeouts",
            "cancelled",
            "errors",
            "retries",
            "version_race_failures",
            "result_hits",
            "result_misses",
            "result_coalesced",
            "hook_errors",
        ):
            self.metrics.counter(name)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "QueryService":
        with self._state_lock:
            if self._closed:
                raise RejectedError("service is stopped")
            if self._started:
                return self
            self._started = True
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker_loop, name=f"repro-serve-{i}", daemon=True
                )
                self._threads.append(thread)
                thread.start()
        return self

    def stop(self, wait: bool = True) -> None:
        """Refuse new submissions, drain the queue, and join the workers."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        for _ in self._threads:
            self._queue.put(_SENTINEL)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def add_hook(self, hook: Callable[[QueryRequest, QueryResponse], None]) -> None:
        """Observe every (request, response) pair after completion.

        Hooks run on worker threads; exceptions are swallowed into the
        ``hook_errors`` counter so a failing observer cannot take down
        serving. Typical use: a continuous oracle cross-checking served
        values against the single-threaded interpreter.
        """
        self._hooks.append(hook)

    # -- serving -------------------------------------------------------------
    def submit(
        self,
        request: QueryRequest | str,
        params: Mapping[str, object] | None = None,
        timeout: float | None = None,
    ) -> PendingQuery:
        """Admit a request; returns its :class:`PendingQuery` handle.

        Raises :class:`~repro.errors.RejectedError` when the admission
        queue is at capacity (load shedding) or the service is stopped.
        """
        if isinstance(request, str):
            request = QueryRequest(request, params=params, timeout=timeout)
        self.metrics.counter("submitted").inc()
        if self._closed:
            self.metrics.counter("shed").inc()
            self.slow_queries.record_failure(
                _slow_entry(request, "rejected", error="service is stopped")
            )
            emit_event(
                "reject",
                query_id=request.request_id,
                level="warning",
                query=request.query,
                reason="service is stopped",
            )
            raise RejectedError("service is stopped")
        if not self._started:
            self.start()
        pending = PendingQuery(request)
        pending.enqueued_at = time.monotonic()
        effective = request.timeout if request.timeout is not None else self.default_timeout
        pending.deadline = None if effective is None else pending.enqueued_at + effective
        try:
            self._queue.put_nowait(pending)
        except queue_mod.Full:
            self.metrics.counter("shed").inc()
            reason = f"service saturated: admission queue at capacity ({self.queue_limit})"
            self.slow_queries.record_failure(_slow_entry(request, "rejected", error=reason))
            emit_event(
                "reject",
                query_id=request.request_id,
                level="warning",
                query=request.query,
                reason=reason,
            )
            raise RejectedError(reason) from None
        self.metrics.counter("admitted").inc()
        self.metrics.histogram("queue_depth").observe(self._queue.qsize())
        emit_event(
            "admit",
            query_id=request.request_id,
            query=request.query,
            queue_depth=self._queue.qsize(),
            timeout=effective,
        )
        return pending

    def execute(
        self,
        query: QueryRequest | str,
        params: Mapping[str, object] | None = None,
        timeout: float | None = None,
    ) -> QueryResponse:
        """Submit and block for the response (the synchronous client path)."""
        return self.submit(query, params=params, timeout=timeout).result()

    def serve_all(self, requests: Iterable[QueryRequest | str]) -> list[QueryResponse]:
        """Submit a batch and wait for every response, preserving order.

        Requests shed at admission yield ``"rejected"`` responses in place
        rather than raising, so the caller gets exactly one response per
        request — the accounting the serving benchmark relies on.
        """
        slots: list[PendingQuery | QueryResponse] = []
        for request in requests:
            try:
                slots.append(self.submit(request))
            except RejectedError as exc:
                rid = request.request_id if isinstance(request, QueryRequest) else "-"
                slots.append(QueryResponse(rid, "rejected", error=str(exc)))
        return [s.result() if isinstance(s, PendingQuery) else s for s in slots]

    def stats(self) -> dict:
        """Counters, latency histograms, queue depth, and cache hit rates."""
        snap = self.metrics.snapshot()
        snap["workers"] = self.workers
        snap["queue_depth"] = self._queue.qsize()
        snap["in_flight"] = len(self.registry)
        snap["active_queries"] = self.registry.snapshot()["active"]
        snap["events"] = events_snapshot()
        snap["slow_queries"] = self.slow_queries.snapshot()
        # Every registered cache's byte/entry/counter report (plan,
        # build), with "result" pinned to *this* service's
        # cache rather than whichever instance registered last.
        snap["caches"] = self.caches(top_k=3)["caches"]
        snap["result_cache_bytes"] = self._results.total_bytes
        return snap

    def caches(self, top_k: int = 3) -> dict:
        """The cache registry's snapshot, pinned to this service.

        The process-global registry resolves ``"result"`` to whichever
        service registered last; this method substitutes *this*
        instance's result cache, so it is the snapshot behind both
        ``stats()["caches"]`` and the metrics server's ``GET /caches``.
        """
        snap = caches_snapshot(top_k=top_k)
        result_report = self._results.report(top_k=top_k)
        result_report["memory_pressure"] = CACHE_REGISTRY.pressure_snapshot().get(
            "result", 0
        )
        snap["caches"]["result"] = result_report
        snap["total_bytes"] = sum(
            r.get("bytes", 0) for r in snap["caches"].values()
        )
        return snap

    # -- worker internals ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                return
            response = self._handle(item)
            item._fulfil(response)
            for hook in self._hooks:
                try:
                    hook(item.request, response)
                except Exception:
                    self.metrics.counter("hook_errors").inc()

    def _handle(self, pending: PendingQuery) -> QueryResponse:
        request = pending.request
        started = time.monotonic()
        queue_seconds = started - pending.enqueued_at
        worker = threading.current_thread().name
        trace = QueryTrace(query=request.query)
        trace.record(
            "service", "dequeue", detail=f"queued {queue_seconds * 1e3:.3f}ms, worker {worker}"
        )
        response = QueryResponse(
            request.request_id,
            "error",
            queue_seconds=queue_seconds,
            worker=worker,
            trace_id=trace.trace_id,
        )
        pq = None
        token = CancelToken(deadline=pending.deadline)
        # Live introspection: the registry entry doubles as the token's
        # progress sink, so operator polls advance it from here on.
        self.registry.register(
            request.request_id,
            request.query,
            params=request.params,
            trace_id=trace.trace_id,
            exec_mode="batch",
            token=token,
            deadline=pending.deadline,
        )
        if pending.deadline is not None and started >= pending.deadline:
            # The deadline passed while the request sat in the queue.
            self.metrics.counter("timeouts").inc()
            response.outcome = "timeout"
            response.error = "deadline exceeded while queued"
            trace.record("service", "deadline-exceeded", detail=response.error)
            emit_event(
                "timeout",
                query_id=request.request_id,
                trace_id=trace.trace_id,
                level="warning",
                reason=response.error,
            )
        else:
            try:
                with cancel_scope(token):
                    value, version, source, attempts, pq, misests, exec_mode = (
                        self._execute_with_retry(request, token)
                    )
                response.outcome = "ok"
                response.value = value
                response.error = None
                response.catalog_version = version
                response.result_cache = source
                response.attempts = attempts
                response.misestimates = misests
                # How the answer was *produced*: the leader's label for
                # misses, the memoized leader's for cache hits and
                # coalesced followers.
                response.exec_mode = exec_mode
                if pq is not None:
                    response.rewrite_kinds = pq.rewrite_kinds()
                trace.record(
                    "service",
                    "served",
                    detail=f"result_cache={source}, attempts={attempts}",
                )
                if source == "miss" and pq is not None:
                    # One leader execution per distinct (query, version):
                    # count the translator's decision once, not per client.
                    counter = self.metrics.labeled_counter("queries_by_rewrite")
                    for kind in response.rewrite_kinds:
                        counter.inc(kind)
                if response.exec_mode is not None:
                    # Per served response (not per leader): cache hits and
                    # coalesced followers carry their producer's label.
                    self.metrics.labeled_counter("queries_by_exec_mode").inc(
                        response.exec_mode
                    )
                self.metrics.counter("ok").inc()
            except CancelledError as exc:
                if token.cancelled:
                    # The token's event was set explicitly — an admin
                    # cancel (or client abort), not a deadline lapse.
                    self.metrics.counter("cancelled").inc()
                    response.outcome = "cancelled"
                    response.error = str(exc)
                    trace.record("service", "cancelled", detail=response.error)
                    emit_event(
                        "cancel",
                        query_id=request.request_id,
                        trace_id=trace.trace_id,
                        level="warning",
                        reason=response.error,
                    )
                else:
                    self.metrics.counter("timeouts").inc()
                    response.outcome = "timeout"
                    response.error = str(exc)
                    trace.record("service", "deadline-exceeded", detail=response.error)
                    emit_event(
                        "timeout",
                        query_id=request.request_id,
                        trace_id=trace.trace_id,
                        level="warning",
                        reason=response.error,
                    )
            except CatalogVersionRace as exc:
                self.metrics.counter("version_race_failures").inc()
                response.error = str(exc)
                response.attempts = self.max_attempts
                trace.record("service", "version-race", detail=response.error)
                emit_event(
                    "error",
                    query_id=request.request_id,
                    trace_id=trace.trace_id,
                    level="error",
                    reason=response.error,
                )
            except ReproError as exc:
                self.metrics.counter("errors").inc()
                response.error = str(exc)
                trace.record("service", "error", detail=response.error)
                emit_event(
                    "error",
                    query_id=request.request_id,
                    trace_id=trace.trace_id,
                    level="error",
                    reason=response.error,
                )
            except Exception as exc:  # defensive: never lose a request
                self.metrics.counter("errors").inc()
                response.error = f"{type(exc).__name__}: {exc}"
                trace.record("service", "error", detail=response.error)
                emit_event(
                    "crash",
                    query_id=request.request_id,
                    trace_id=trace.trace_id,
                    level="error",
                    reason=response.error,
                )
        finished = time.monotonic()
        response.execute_seconds = finished - started
        response.total_seconds = finished - pending.enqueued_at
        entry = self.registry.finish(request.request_id, response.outcome)
        if response.outcome == "ok":
            emit_event(
                "complete",
                query_id=request.request_id,
                trace_id=trace.trace_id,
                outcome="ok",
                seconds=response.total_seconds,
                exec_mode=response.exec_mode,
                result_cache=response.result_cache,
                rows_processed=entry.rows_processed if entry is not None else None,
            )
        self._capture(request, response, trace, pq)
        self.metrics.counter("completed").inc()
        self.metrics.histogram("latency_ms").observe(response.total_seconds * 1e3)
        self.metrics.histogram("execute_ms").observe(response.execute_seconds * 1e3)
        self.metrics.histogram("queue_ms").observe(queue_seconds * 1e3)
        return response

    def _capture(self, request, response, trace, pq) -> None:
        """Feed the slow-query log: ok responses compete on latency,
        timeouts are always kept (recency-bounded)."""
        entry = _slow_entry(
            request,
            response.outcome,
            trace_id=trace.trace_id,
            error=response.error,
            queue_seconds=response.queue_seconds,
            execute_seconds=response.execute_seconds,
            total_seconds=response.total_seconds,
            worker=response.worker,
            result_cache=response.result_cache,
            rewrite_kinds=list(response.rewrite_kinds),
            exec_mode=response.exec_mode,
            events=[e.to_dict() for e in trace.events],
        )
        # The cache footprint at capture time: a slow entry then shows
        # whether the request ran against warm caches or under memory
        # pressure (bytes held per cache when it completed).
        entry["caches"] = _cache_footprint(self._results)
        if response.misestimates:
            # The top-k misestimated operators of the (sampled, analyzed)
            # execution that served this request: a slow entry then says
            # not just that the query was slow but which cardinality
            # misjudgements shaped the plan that made it slow.
            entry["misestimates"] = list(response.misestimates)
        if pq is not None and getattr(pq, "trace", None) is not None:
            # The rewrite decisions were recorded when the plan was first
            # prepared; link and embed them so a slow-log entry explains
            # not just how long the query took but how it was translated.
            entry["prepare_trace"] = pq.trace.to_dict()
        if response.outcome == "ok":
            self.slow_queries.record_ok(entry)
        elif response.outcome in ("timeout", "cancelled", "error"):
            # Errors join timeouts in the always-kept failure ring, so a
            # failed query is findable after the fact.
            self.slow_queries.record_failure(entry)

    def _execute_with_retry(self, request: QueryRequest, token: CancelToken):
        """Run until version-stable, retrying races with capped backoff."""
        params = bind_values(request.params)
        attempts = 0
        while True:
            attempts += 1
            token.check()
            try:
                value, version, source, pq, misests, exec_mode = (
                    self._execute_shared(request.query, params, token, request)
                )
                return value, version, source, attempts, pq, misests, exec_mode
            except CatalogVersionRace:
                self.metrics.counter("retries").inc()
                if attempts >= self.max_attempts:
                    raise
                delay = self.backoff_base * (2 ** (attempts - 1))
                remaining = token.remaining()
                if remaining is not None:
                    delay = min(delay, remaining)
                if delay > 0:
                    time.sleep(delay)
            except _LeaderCancelled:
                # The leader this attempt coalesced onto was cancelled;
                # this request wasn't. Re-attempt immediately — the
                # token.check() at the loop top enforces *our* deadline.
                self.metrics.counter("retries").inc()
                if attempts >= self.max_attempts:
                    raise CancelledError(
                        "coalesced leader was cancelled on every attempt"
                    ) from None

    def _execute_shared(self, text: str, params: dict, token: CancelToken, request=None):
        """One attempt: result cache → coalesce → leader execution.

        The result cache is keyed by (query text, parameter values,
        catalog version) and consulted *before* preparation, so a hit
        skips even the plan-cache lookup — repeated traffic costs one dict
        probe per request. A miss prepares the parameterised text (one
        plan for every binding) and executes it with *params* bound.
        """
        version = getattr(self.catalog, "version", None)
        key = (text, _params_key(params), version)
        cached = self._results.get(key)
        if cached is not None:
            value, exec_mode = cached
            self.metrics.counter("result_hits").inc()
            return value, version, "hit", None, (), exec_mode
        pq = prepared(text, self.catalog, typecheck=self.typecheck, params=params)
        self._seed_estimate(token, pq)
        with self._inflight_lock:
            entry = self._inflight.get(key)
            leader = entry is None
            if leader:
                entry = self._inflight[key] = _InFlight()
            else:
                entry.waiters += 1
        if not leader:
            if not entry.event.wait(timeout=token.remaining()):
                raise CancelledError("deadline exceeded waiting on a coalesced execution")
            if entry.error is not None:
                if isinstance(entry.error, CancelledError) and not token.cancelled:
                    # The *leader* was cancelled, not this follower —
                    # don't inherit its fate, retry as the new leader.
                    raise _LeaderCancelled(str(entry.error))
                raise entry.error
            self.metrics.counter("result_coalesced").inc()
            return entry.value, version, "coalesced", pq, (), entry.exec_mode
        try:
            with param_scope(params):
                value, misestimates, exec_mode = self._execute_leader(pq, version)
        except BaseException as exc:
            entry.error = exc
            raise
        else:
            entry.value = value
            entry.exec_mode = exec_mode
            # Memoized with its producer's mode, so later hits attribute
            # correctly.
            self._results.put(key, (value, exec_mode))
            self.metrics.counter("result_misses").inc()
            return value, version, "miss", pq, misestimates, exec_mode
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)
            if isinstance(entry.error, CancelledError) and entry.waiters:
                # Not silent: a cancelled leader orphans its followers
                # (they will re-attempt); leave an audit trail keyed to
                # the leader's query id. No new waiters can join — the
                # entry left the map under the lock above.
                emit_event(
                    "coalesce_dropped",
                    query_id=request.request_id if request is not None else None,
                    level="warning",
                    query=text,
                    waiters=entry.waiters,
                    reason=str(entry.error),
                )
            entry.event.set()

    def _seed_estimate(self, token: CancelToken, pq) -> None:
        """Give the request's live entry its progress denominator.

        :func:`~repro.engine.stats.estimated_work` over the compiled
        physical tree; ``compile_for`` memoizes per catalog version, so
        after the first request this is a cache probe. Interpreted
        queries (no plan) keep ``estimated_rows=None`` → progress 0.
        """
        progress = token.progress
        if (
            progress is None
            or getattr(progress, "estimated_rows", None) is not None
            or pq.plan is None
        ):
            return
        try:
            progress.estimated_rows = estimated_work(pq.compile_for(self.catalog))
        except Exception:
            pass  # progress is best-effort; never fail the query for it

    def _execute_leader(self, pq, version):
        """Execute the prepared query; raise if the catalog moved mid-flight.

        Returns ``(value, misestimates, exec_mode)``; ``exec_mode`` is
        ``"batch"`` for planned queries and ``"interpreted"`` otherwise.

        Every ``feedback_every``-th
        leader execution of a planned query runs instrumented
        (:meth:`PreparedQuery.analyze`) instead of plain: its per-operator
        q-errors are aggregated into this service's metrics (``qerror``,
        ``qerror_by_op``, ``qerror_by_rewrite``) and the top-k
        misestimated operators ride along on the response and the
        slow-query log. Version-racy runs are discarded before any
        feedback is recorded, so the histograms only ever see
        version-stable executions.

        A separate method so tests can wrap it to inject deterministic
        version races.
        """
        run = None
        if (
            self.feedback_every
            and pq.plan is not None
            and next(self._feedback_tick) % self.feedback_every == 0
        ):
            from repro.algebra.interpreter import result_set

            run = pq.analyze(self.catalog)
            value = result_set(run.rows)
        else:
            value = pq.execute(self.catalog)
        if getattr(self.catalog, "version", None) != version:
            raise CatalogVersionRace(
                f"catalog version moved from {version} to "
                f"{getattr(self.catalog, 'version', None)} during execution"
            )
        misestimates: tuple = ()
        if run is not None:
            from repro.engine.feedback import record_run, top_misestimates

            entries = record_run(run, pq.rewrite_kinds(), registry=self.metrics)
            misestimates = tuple(
                e.to_dict() for e in top_misestimates(entries, self.feedback_top_k)
            )
        exec_mode = "batch" if pq.plan is not None else "interpreted"
        return value, misestimates, exec_mode


def _slow_entry(request: QueryRequest, outcome: str, **extra) -> dict:
    """A JSON-serializable slow-query-log record for one request.

    ``query_id`` duplicates ``request_id`` under the name the structured
    event log uses, so slow entries join directly against event-log lines
    (and the live registry's snapshots).
    """
    entry = {
        "request_id": request.request_id,
        "query_id": request.request_id,
        "query": request.query,
        "outcome": outcome,
    }
    entry.update({k: v for k, v in extra.items() if v is not None})
    return entry


def _params_key(params: dict) -> tuple:
    """The bound values as a hashable key part, sorted by name.

    Each value is paired with its model type: ``1``, ``1.0`` and ``True``
    are equal and hash alike, yet type-check differently.
    """
    return tuple(
        sorted((name, type_of_value(value), value) for name, value in params.items())
    )


def _result_key_identity(key) -> dict:
    """Top-entry identity for a result-cache key: text, params, version."""
    text, params, version = key
    out = {
        "query": text if len(text) <= 120 else text[:119] + "…",
        "catalog_version": version,
    }
    if params:
        out["params"] = {name: repr(value) for name, _type, value in params}
    return out


def _cache_footprint(results: LRUCache) -> dict:
    """Compact per-cache byte totals: the slow-log's memory context."""
    reports = CACHE_REGISTRY.snapshot(top_k=0)
    footprint = {name: report.get("bytes", 0) for name, report in reports.items()}
    footprint["result"] = results.total_bytes
    footprint["total_bytes"] = sum(
        v for k, v in footprint.items() if k != "total_bytes"
    )
    return footprint
