"""Span recording and the arithmetic the per-layer report rests on.

A span is (id, parent, name, start, end) on the `perf_counter` clock of
the process that recorded it; every span of one workload run carries the
same trace id.  Spans stay in memory until the process writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next = 0

    def wrap(self, fn, name: str, count=None):
        """`fn` inside a span called `name`; `count(rec, args, kwargs,
        result)` runs after the call to add counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, t0, t1))
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def tally(self, fn, name: str):
        """`fn` counting its calls under `name`, without a span."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def dump(self) -> dict:
        return {"trace_id": self.trace_id,
                "spans": [list(s) for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the summed durations of its children.

    Children of one span run one after another in a single thread, so
    they never overlap.
    """
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, t0, t1 in spans:
        if parent is not None:
            covered[parent] += t1 - t0
    return {span_id: (t1 - t0) - covered[span_id]
            for span_id, _, _, t0, t1 in spans}


TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values, min_beyond: int = 10) -> tuple[float, float, int] | None:
    """(percentile, value, n) for the highest percentile on TAIL_LADDER
    with at least `min_beyond` samples above its rank; None when even the
    median has fewer."""
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            best = (p, ordered[rank - 1], n)
    return best


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), by the exclusive method of `statistics.quantiles`
    with n=4; a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
