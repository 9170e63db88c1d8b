"""Cooperative cancellation for physical plan execution.

Physical operators are Python generators; nothing can interrupt them from
the outside mid-iteration. Instead, execution is made *cancellable* by
installing a :class:`CancelToken` in a thread-local slot (via
:func:`cancel_scope`) and having operators poll it at *batch*
boundaries: operators call :meth:`CancelToken.check` once per batch
they exchange, and the nested-loop and sort-merge join kernels, whose
work per input row is not bounded by a batch, poll about every
:data:`POLL_INTERVAL` row pairs — with the first poll before the first
row, so an already-cancelled token stops even tiny inputs immediately.
:meth:`CancelToken.check` raises
:class:`~repro.errors.CancelledError` once the token's deadline has
passed or :meth:`CancelToken.cancel` was called.

The design keeps the single-threaded hot path free: operators fetch the
thread-local token once per ``run_batches()`` call and skip all polling when no
scope is installed, so plain ``run_query`` executions pay one attribute
lookup per operator, not per row.

The polls double as *progress* beacons: a token may carry a progress
sink (any object with an ``advance(rows, op)`` method — in the serving
layer, the request's :class:`~repro.server.registry.ActiveQuery` entry)
and operators pass the rows they processed since their previous poll to
:meth:`CancelToken.check`. Live progress therefore costs one ``None``
test per poll when no sink is installed, and nothing at all when no
token is installed — the same zero-overhead-when-off contract as
cancellation itself.

Tokens are installed per *thread*; the same compiled operator tree can
therefore execute concurrently in many service workers, each under its
own deadline.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.errors import CancelledError

__all__ = ["CancelToken", "cancel_scope", "current_token", "checkpoint", "POLL_INTERVAL"]

#: Row pairs between token polls in the nested-loop and sort-merge join
#: kernels. Matches the default batch size, so every operator notices
#: cancellation with the same worst-case latency (one batch of work).
POLL_INTERVAL = 1024


class CancelToken:
    """A deadline and/or explicit cancellation flag polled by operators."""

    __slots__ = ("deadline", "_event", "reason", "progress")

    def __init__(self, deadline: float | None = None):
        #: Absolute :func:`time.monotonic` instant after which :meth:`check`
        #: raises, or None for no deadline.
        self.deadline = deadline
        self._event = threading.Event()
        self.reason = "cancelled"
        #: Optional progress sink: any object exposing
        #: ``advance(rows: int, op: str | None)``. :meth:`check` forwards
        #: the rows-since-last-poll count to it, so live progress rides
        #: on the cancellation polls the operators already make.
        self.progress = None

    @classmethod
    def after(cls, seconds: float | None) -> "CancelToken":
        """A token expiring *seconds* from now (None → never expires)."""
        if seconds is None:
            return cls(None)
        return cls(time.monotonic() + seconds)

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation; the next :meth:`check` raises."""
        self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline

    def remaining(self) -> float | None:
        """Seconds until the deadline (never negative), or None."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    def check(self, rows: int = 0, op: str | None = None) -> None:
        """Raise :class:`CancelledError` if cancelled or past the deadline.

        *rows* is the number of rows the caller processed since its
        previous poll; when a progress sink is installed it is credited
        (with the caller's operator label *op*) before the cancellation
        test, so work done right up to a cancel is still accounted.
        """
        if rows and self.progress is not None:
            self.progress.advance(rows, op)
        if self._event.is_set():
            raise CancelledError(self.reason)
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise CancelledError("deadline exceeded")


_local = threading.local()


def current_token() -> CancelToken | None:
    """The token installed in this thread's scope, or None."""
    return getattr(_local, "token", None)


@contextmanager
def cancel_scope(token: CancelToken | None):
    """Install *token* for the current thread for the duration of the block.

    Scopes nest: the previous token (if any) is restored on exit, so a
    sub-execution can tighten a deadline without disturbing its caller.
    """
    previous = getattr(_local, "token", None)
    _local.token = token
    try:
        yield token
    finally:
        _local.token = previous


def checkpoint() -> None:
    """Poll the current thread's token, if one is installed.

    The hook for code outside the physical operators (drivers, helpers)
    that wants to participate in cooperative cancellation.
    """
    token = getattr(_local, "token", None)
    if token is not None:
        token.check()
