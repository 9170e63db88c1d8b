"""Thread-safe serving metrics: counters, latency histograms, a registry.

The query service records every request's fate here; :meth:`MetricsRegistry.snapshot`
is what ``QueryService.stats()`` serializes. The pieces are deliberately
minimal:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Histogram` — running count/sum/min/max plus a bounded ring of
  the most recent observations, from which percentiles are computed at
  read time (sorting a few thousand floats on demand beats maintaining a
  sorted structure on every observation);
* :class:`MetricsRegistry` — name → instrument, created on first use.

:func:`percentile` is the shared interpolating-percentile helper; the CLI's
``query --repeat`` reporting uses it directly on its timing samples.
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

__all__ = [
    "Counter",
    "LabeledCounter",
    "Histogram",
    "LabeledHistogram",
    "MetricsRegistry",
    "percentile",
]


def percentile(values: Sequence[float] | Iterable[float], q: float) -> float:
    """The *q*-th percentile (0–100) of *values*, linearly interpolated.

    Returns 0.0 for an empty input so report code needs no special case.
    *q* is clamped to [0, 100]: q<=0 is the minimum, q>=100 the maximum.
    """
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    q = min(100.0, max(0.0, q))
    rank = (len(data) - 1) * (q / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(data) - 1)
    frac = rank - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


class Counter:
    """A thread-safe monotonically increasing counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self._value})"


class LabeledCounter:
    """A family of counters keyed by a string label.

    One instrument, many time series — e.g. ``queries_by_rewrite`` with
    labels ``semijoin`` / ``antijoin`` / ``nestjoin``.  Labels are created
    on first increment; :meth:`values` snapshots the whole family.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: dict[str, int] = {}
        self._lock = threading.Lock()

    def inc(self, label: str, n: int = 1) -> None:
        with self._lock:
            self._values[label] = self._values.get(label, 0) + n

    def get(self, label: str) -> int:
        with self._lock:
            return self._values.get(label, 0)

    def values(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)

    def __repr__(self) -> str:
        return f"LabeledCounter({self.values()})"


class Histogram:
    """Running aggregates plus a recent-observation window for percentiles.

    The window is a ring buffer of the last *window* observations; with
    the default 4096 slots the percentile view covers the recent past
    without unbounded growth. count/sum/min/max are exact over the whole
    lifetime.
    """

    def __init__(self, window: int = 4096):
        if window <= 0:
            raise ValueError("histogram window must be positive")
        self._window = window
        self._ring: list[float] = []
        self._pos = 0
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._ring) < self._window:
                self._ring.append(value)
            else:
                self._ring[self._pos] = value
                self._pos = (self._pos + 1) % self._window

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> list[float]:
        """A snapshot of the current observation window (unordered)."""
        with self._lock:
            return list(self._ring)

    def percentile(self, q: float) -> float:
        return percentile(self.values(), q)

    def summary(self) -> dict:
        """Lifetime count/sum/mean/min/max plus p50/p90/p95/p99 over the window.

        ``count`` and ``sum`` are exact over the histogram's whole lifetime
        (read under the lock together with the window, so they are mutually
        consistent); only the percentiles are computed from the bounded
        recent-observation window. Exposition relies on the lifetime pair —
        a Prometheus ``_sum``/``_count`` that only covered the window would
        under-report totals on any long-running service.
        """
        with self._lock:
            window = list(self._ring)
            count, total = self.count, self.total
            lo, hi = self.min, self.max
        data = sorted(window)
        return {
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo if lo is not None else 0.0,
            "max": hi if hi is not None else 0.0,
            "p50": percentile(data, 50),
            "p90": percentile(data, 90),
            "p95": percentile(data, 95),
            "p99": percentile(data, 99),
        }


class LabeledHistogram:
    """A family of histograms keyed by a string label.

    One instrument, many distributions — e.g. ``qerror_by_op`` with labels
    ``join_nest`` / ``scan`` / ``filter``. Labels are created on first
    observation; :meth:`summaries` snapshots the whole family.
    """

    def __init__(self, window: int = 4096):
        if window <= 0:
            raise ValueError("histogram window must be positive")
        self._window = window
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def labeled(self, label: str) -> Histogram:
        with self._lock:
            h = self._histograms.get(label)
            if h is None:
                h = self._histograms[label] = Histogram(self._window)
            return h

    def observe(self, label: str, value: float) -> None:
        self.labeled(label).observe(value)

    def labels(self) -> list[str]:
        with self._lock:
            return sorted(self._histograms)

    def summaries(self) -> dict[str, dict]:
        """label → :meth:`Histogram.summary`, for the whole family."""
        with self._lock:
            items = sorted(self._histograms.items())
        return {label: h.summary() for label, h in items}

    def __repr__(self) -> str:
        return f"LabeledHistogram({self.labels()})"


class MetricsRegistry:
    """Named counters and histograms, created on first use."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._labeled: dict[str, LabeledCounter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._labeled_histograms: dict[str, LabeledHistogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def labeled_counter(self, name: str) -> LabeledCounter:
        with self._lock:
            instrument = self._labeled.get(name)
            if instrument is None:
                instrument = self._labeled[name] = LabeledCounter()
            return instrument

    def histogram(self, name: str, window: int = 4096) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(window)
            return instrument

    def labeled_histogram(self, name: str, window: int = 4096) -> LabeledHistogram:
        with self._lock:
            instrument = self._labeled_histograms.get(name)
            if instrument is None:
                instrument = self._labeled_histograms[name] = LabeledHistogram(window)
            return instrument

    def snapshot(self) -> dict:
        """All instruments as plain JSON-serializable data."""
        with self._lock:
            counters = dict(self._counters)
            labeled = dict(self._labeled)
            histograms = dict(self._histograms)
            labeled_histograms = dict(self._labeled_histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "labeled": {name: c.values() for name, c in sorted(labeled.items())},
            "histograms": {name: h.summary() for name, h in sorted(histograms.items())},
            "labeled_histograms": {
                name: h.summaries() for name, h in sorted(labeled_histograms.items())
            },
        }
