"""Benchmark-side span recorder (choosing-metrics guide, section 4).

Spans are recorded by the benchmark's own wrappers around calls into
each layer's public functions — nothing inside ``src/`` is edited or
patched.  A span is ``name, start, end, parent, workload``; they stay
in memory until the run ends and are then written as one JSON file.
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Records nested spans; single-threaded (one parent stack).

    Concurrent callers (the service client threads) keep their own
    timestamps and :meth:`add` them once the run is over.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def open(self, name: str) -> Span:
        stack = self._stack
        span = Span(len(self.spans), name, 0.0, 0.0, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: Span | None) -> Span:
        """A span timed elsewhere (client threads, server-side job stamps)."""
        span = Span(
            len(self.spans), name, start, end, None if parent is None else parent.id
        )
        self.spans.append(span)
        return span

    def write(self, path) -> None:
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "workload": self.workload,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Summed self time per span name."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - _covered(children[s.id], s.start, s.end)
    return dict(out)


def totals(spans: list[Span]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += s.end - s.start
    return dict(out)
