"""Spans recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent, analysis id, failed).  Spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class NullTracer:
    """Untraced runs: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_analysis(self, ident):
        pass


class Tracer:
    """Traced runs: every call is recorded as a span."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, analysis, failed]
        self._stack: list = []
        self._analysis = None

    def begin_analysis(self, ident):
        self._analysis = ident

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._analysis, False]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span[5] = True
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span named `name`."""
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def spanned_s(self) -> float:
        """Time inside top-level spans: the denominator of self shares."""
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent is None)

    def summary(self) -> dict:
        """Per span name: calls, failed calls, total and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _, failed) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["failed"] += int(failed)
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def write(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "analysis", "failed")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
