"""In-memory span tracing for the benchmark.

A span records (name, start, end, parent, op id). Spans are opened only by
the benchmark's own code, around its calls into the package's public
functions, so the package itself is never instrumented. The untraced run
uses `NullTracer`, whose spans cost one method call and record nothing.
"""

from __future__ import annotations

import json
from time import perf_counter

OP_SPAN = "op"


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t._stack[-1] if t._stack else -1
        t.spans.append([self.name, perf_counter(), 0.0, parent, t.op_id])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = perf_counter()
        t._stack.pop()
        return False


class Tracer:
    """Collects spans as [name, start, end, parent index, op id] lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "op": op_id}
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    op_id = -1

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval that its
    children cover (child intervals are clipped to the parent's)."""
    children = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if e > start and s < end]
        out.append((end - start) - _covered(clipped))
    return out


def summarize(spans, names) -> dict:
    """Per-layer metrics for every span name in `names`: call count, summed
    self time, and self time as a share of total op time (the summed
    duration of the root `op` spans)."""
    selfs = self_times(spans)
    op_total = sum(
        end - start for name, start, end, parent, _ in spans if name == OP_SPAN
    )
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    for span, st in zip(spans, selfs):
        name = span[0]
        if name in calls:
            calls[name] += 1
            self_s[name] += st
    out = {}
    for name in names:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
        out[f"{name}.self_share"] = (
            self_s[name] / op_total if op_total else 0.0,
            "ratio",
        )
    return out
