"""In-memory spans recorded from outside the engine.

The program under test carries no spans of its own, so the benchmark
records one around each call it makes into a layer's public function.
Spans stay in a list until the run ends and are then written to
``perfbench/out/trace-<workload>.json``.  A layer's *self time* is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op")

    def __init__(self, name: str, parent: "Span | None", op: int | None):
        self.id = -1
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent.id if parent is not None else None
        #: Spans of one operation share its identifier.
        self.op = op if op is not None or parent is None else parent.op

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; each thread nests its own."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()

    def _register(self, span: Span) -> Span:
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = getattr(self._open, "stack", None)
        if stack is None:
            stack = self._open.stack = []
        span = self._register(Span(name, stack[-1] if stack else None, op))
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def add(
        self,
        name: str,
        start: float,
        seconds: float,
        parent: Span | None = None,
        op: int | None = None,
    ) -> Span:
        """A span over an interval measured elsewhere (by the caller's own
        clock reads, or reported by the program as a duration)."""
        span = self._register(Span(name, parent, op))
        span.start, span.end = start, start + seconds
        return span

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        children: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] = children.get(span.parent, 0.0) + span.seconds
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.seconds - children.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: str) -> None:
        fields = Span.__slots__
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "fields": fields,
                    "self_time_s": self.self_times(),
                    "spans": [
                        [getattr(span, field) for field in fields]
                        for span in self.spans
                    ],
                },
                out,
            )
