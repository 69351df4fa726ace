"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is (name, start_ns, end_ns, parent, value): ``parent`` is the index
of the span open when it started (-1 at the top), ``value`` an optional
count the wrapped call reported (Newton iterations, matrix size).  Spans
stay in memory until the run ends; :func:`write_csv` writes them out.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, VALUE = range(5)


class Recorder:
    """Single-threaded span stack.  ``wrap`` returns a function that
    records one span per call of ``fn``."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, value=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[VALUE] = value
        self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        """``value_of(args, result)`` picks the span's value."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name)
            value = None
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(args, result)
                return result
            finally:
                rec.close(idx, value)

        return traced


def duration(span) -> int:
    return span[END] - span[START]


def children(spans) -> list:
    """Child indices of every span, in start order."""
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


def covered(span, intervals) -> int:
    """Length of the part of ``span``'s interval that the union of
    ``intervals`` (start, end) covers."""
    lo, hi = span[START], span[END]
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, kids=None) -> list:
    """Duration of each span minus the part its children cover (ns)."""
    kids = children(spans) if kids is None else kids
    return [
        duration(s) - covered(s, [(spans[k][START], spans[k][END]) for k in kids[i]])
        for i, s in enumerate(spans)
    ]


def write_csv(spans, path) -> None:
    t0 = min((s[START] for s in spans), default=0)
    with open(path, "w") as fh:
        fh.write("id,name,start_ns,end_ns,parent,value\n")
        for i, s in enumerate(spans):
            value = "" if s[VALUE] is None else s[VALUE]
            fh.write(f"{i},{s[NAME]},{s[START] - t0},{s[END] - t0},{s[PARENT]},{value}\n")
