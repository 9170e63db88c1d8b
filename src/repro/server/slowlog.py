"""Slow-query capture: the N slowest served requests plus recent failures.

The query service records every completed request's trace summary here.
Two retention policies coexist, matching how the two populations are used:

* **Slowest-N** — ``ok`` responses compete for a fixed number of slots by
  total latency (queue + execute). A min-heap keyed on latency keeps the
  N slowest seen so far: a new entry either displaces the fastest resident
  or is dropped, so capture cost is O(log N) per request and memory is
  bounded regardless of traffic volume.
* **Recent failures** — rejected, errored (e.g. a worker-pool crash),
  cancelled, and deadline-exceeded requests are kept in a bounded FIFO
  ring (newest win). These are the requests with *no* useful latency
  signal — a shed request never ran — so recency, not slowness, is the
  retention key.

Every entry carries a ``query_id`` (the request id), the same
correlation key stamped on structured event-log lines
(:mod:`repro.core.log`) and live-registry snapshots — a slow or failed
query joins directly against its admission/cancel/completion events.

:meth:`SlowQueryLog.snapshot` returns both populations as plain dicts for
``QueryService.stats()["slow_queries"]``.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Bounded capture of the slowest ok requests and recent failures."""

    def __init__(self, capacity: int = 16, failure_capacity: int = 64):
        if capacity <= 0:
            raise ValueError("slow-query capacity must be positive")
        if failure_capacity <= 0:
            raise ValueError("failure capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        # Min-heap of (total_seconds, seq, entry); the root is the fastest
        # resident, i.e. the first to be displaced. seq breaks latency ties
        # so entries (dicts) are never compared.
        self._heap: list[tuple[float, int, dict]] = []
        self._seq = itertools.count()
        self._failures: deque[dict] = deque(maxlen=failure_capacity)

    def record_ok(self, entry: dict) -> None:
        """Offer a completed request; kept only if among the N slowest."""
        key = (float(entry.get("total_seconds", 0.0)), next(self._seq), entry)
        with self._lock:
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, key)
            elif key[0] > self._heap[0][0]:
                heapq.heapreplace(self._heap, key)

    def record_failure(self, entry: dict) -> None:
        """Keep a rejected, errored, or timed-out request (recency-bounded)."""
        with self._lock:
            self._failures.append(entry)

    def snapshot(self) -> dict:
        """Both populations as JSON-serializable data.

        ``slowest`` is ordered slowest-first; ``failures`` oldest-first.
        """
        with self._lock:
            slowest = sorted(self._heap, key=lambda item: item[0], reverse=True)
            failures = list(self._failures)
        return {
            "slowest": [entry for _, _, entry in slowest],
            "failures": failures,
        }
