"""Structured JSON event log for the serving layer.

The query service narrates each request's lifecycle — admission,
rejection, cancellation, failure, completion —
as *events*: flat dicts with a ``ts`` timestamp, an ``event`` name, and
``query_id``/``trace_id`` correlation fields, so one request's story can
be stitched together across the event log, the slow-query log (whose
entries carry the same ``query_id``), and a distributed trace.

Plumbing is stdlib :mod:`logging`: events are emitted through the
``repro.events`` logger with two sinks attached —

* a bounded in-memory ring (:func:`events_snapshot` reads it; the query
  service exposes it as ``stats()["events"]``), always on, sized by
  :data:`EVENT_RING_CAPACITY`;
* an optional file sink writing one JSON line per event
  (:class:`JsonLineFormatter`), enabled when the ``REPRO_LOG_FILE``
  environment variable names a path at first use.

:func:`emit_event` is the producer API. It is cheap — one dict build and
a lock-free deque append on the common path. The :mod:`logging` call
machinery (record construction, caller lookup, handler dispatch) costs
tens of microseconds per event, real money next to sub-millisecond
queries, so emission routes through the logger *only when the file sink
is configured*; otherwise the payload goes straight onto the ring (deque
``append`` is atomic under the GIL, so this stays thread-safe). The
logger does not propagate to the root logger, so applications embedding
the engine see no stray log lines.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import Iterable

__all__ = [
    "EVENT_RING_CAPACITY",
    "JsonLineFormatter",
    "emit_event",
    "events_snapshot",
    "clear_events",
    "reset_event_log",
]

#: Events retained in the in-memory ring (oldest dropped first).
EVENT_RING_CAPACITY = 512

#: Environment variable naming the optional JSON-lines file sink.
LOG_FILE_ENV = "REPRO_LOG_FILE"


class JsonLineFormatter(logging.Formatter):
    """Formats a record carrying an event payload as one JSON line.

    The payload dict is attached to the record as ``event_payload`` by
    :func:`emit_event`; records from other producers fall back to a
    minimal ``{ts, level, event}`` envelope built from the record
    itself, so the formatter is safe on any logger.
    """

    def format(self, record: logging.LogRecord) -> str:
        payload = getattr(record, "event_payload", None)
        if payload is None:
            payload = {
                "ts": record.created,
                "level": record.levelname.lower(),
                "event": record.getMessage(),
            }
        return json.dumps(payload, sort_keys=True, default=str)


class _RingHandler(logging.Handler):
    """Appends event payloads to a bounded deque (newest last)."""

    def __init__(self, capacity: int):
        super().__init__()
        self.ring: deque = deque(maxlen=capacity)

    def emit(self, record: logging.LogRecord) -> None:
        payload = getattr(record, "event_payload", None)
        if payload is not None:
            self.ring.append(payload)


_lock = threading.Lock()
_ring_handler: _RingHandler | None = None
_logger: logging.Logger | None = None
#: True when a REPRO_LOG_FILE handler is attached — only then does
#: emission pay for the logging call machinery (see module docstring).
_file_sink = False


def _get_logger() -> logging.Logger:
    global _logger, _ring_handler, _file_sink
    if _logger is not None:
        return _logger
    with _lock:
        if _logger is not None:
            return _logger
        logger = logging.getLogger("repro.events")
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        # Reconfiguration (reset_event_log) may have left handlers behind
        # on the shared logging registry entry; start from a clean slate.
        for handler in list(logger.handlers):
            logger.removeHandler(handler)
        _ring_handler = _RingHandler(EVENT_RING_CAPACITY)
        logger.addHandler(_ring_handler)
        path = os.environ.get(LOG_FILE_ENV)
        _file_sink = bool(path)
        if path:
            file_handler = logging.FileHandler(path, encoding="utf-8")
            file_handler.setFormatter(JsonLineFormatter())
            logger.addHandler(file_handler)
        _logger = logger
    return _logger


_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}


def emit_event(
    event: str,
    query_id: str | None = None,
    trace_id: str | None = None,
    level: str = "info",
    **fields,
) -> dict:
    """Record one structured event; returns the payload dict.

    ``event`` is the lifecycle name (``admit``, ``reject``,
    ``cancel``, ``timeout``, ``crash``, ``error``, ``complete``,
    ``coalesce_dropped``); ``query_id``/``trace_id`` correlate the event
    with the request and its trace; extra keyword fields ride along
    verbatim (values must be JSON-serializable or stringifiable).
    """
    payload: dict = {"ts": time.time(), "level": level, "event": event}
    if query_id is not None:
        payload["query_id"] = query_id
    if trace_id is not None:
        payload["trace_id"] = trace_id
    payload.update(fields)
    logger = _get_logger()
    if _file_sink:
        # The logger fans out to the ring handler and the file sink.
        logger.log(
            _LEVELS.get(level, logging.INFO), event, extra={"event_payload": payload}
        )
    else:
        # Fast path: no file sink, so skip record construction entirely.
        _ring_handler.ring.append(payload)  # type: ignore[union-attr]
    return payload


def events_snapshot(
    limit: int | None = None,
    query_id: str | None = None,
    events: Iterable[str] | None = None,
) -> list[dict]:
    """The in-memory ring, oldest first, optionally filtered.

    ``query_id`` keeps only one request's events; ``events`` keeps only
    the named event kinds; ``limit`` keeps the most recent N *after*
    filtering.
    """
    _get_logger()
    assert _ring_handler is not None
    out = list(_ring_handler.ring)
    if query_id is not None:
        out = [e for e in out if e.get("query_id") == query_id]
    if events is not None:
        wanted = set(events)
        out = [e for e in out if e.get("event") in wanted]
    if limit is not None and limit >= 0:
        out = out[-limit:]
    return out


def clear_events() -> None:
    """Empty the in-memory ring (the file sink, if any, is untouched)."""
    _get_logger()
    assert _ring_handler is not None
    _ring_handler.ring.clear()


def reset_event_log() -> None:
    """Drop the configured logger so the next emit reconfigures.

    Re-reads ``REPRO_LOG_FILE`` — the hook tests use to point the file
    sink at a temporary path mid-process. Closes the previous handlers.
    """
    global _logger, _ring_handler, _file_sink
    with _lock:
        if _logger is not None:
            for handler in list(_logger.handlers):
                _logger.removeHandler(handler)
                handler.close()
        _logger = None
        _ring_handler = None
        _file_sink = False
