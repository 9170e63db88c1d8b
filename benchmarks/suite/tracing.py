"""In-memory spans recorded around the harness's own calls into each layer.

A span is the list `[name, start, end, parent, op_id]`: `parent` is the index
of the span that caused it (-1 for an operation's root span), and the spans of
one operation share its `op_id`. Spans stay in memory while the benchmark runs
and are written out once, at exit. Nothing inside `src/` is touched: what a
layer does within one public call is not visible here, only the call.
"""

from __future__ import annotations

from collections import defaultdict

ROOT_SPAN = "op"


class Tracer:
    """The spans one client thread recorded; every client has its own."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def root(self, start: float, end: float, op_id: int) -> int:
        """Record the span of a whole operation; returns its index."""
        self.spans.append([ROOT_SPAN, start, end, -1, op_id])
        return len(self.spans) - 1

    def child(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span that the span at index *parent* caused."""
        self.spans.append([name, start, end, parent, self.spans[parent][4]])


def self_seconds(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: a span's duration minus its children's."""
    children = defaultdict(float)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, _op) in enumerate(spans):
        totals[name] += (end - start) - children[index]
    return dict(totals)
