"""Spans and counters recorded around the benchmark's calls into each layer.

A span has a name, a start, an end and a parent.  Spans stay in memory and
are written out once, when the run ends.  Untraced runs use ``NULL_TRACER``,
whose spans are a shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

_NO_SPAN = nullcontext()


class NullTracer:
    def span(self, name: str):
        return _NO_SPAN

    phase = span

    def count(self, name: str, n: int = 1) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """In-memory span recorder.  Root spans are phases ("setup", "round:0",
    ...); counts are kept per phase."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, Counter] = {}   # phase name -> counter
        self._phase = "setup"

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Root span that also collects the counts made inside it."""
        prev = self._phase
        self._phase = name
        try:
            with self.span(name):
                yield
        finally:
            self._phase = prev

    def count(self, name: str, n: int = 1) -> None:
        self.counts.setdefault(self._phase, Counter())[name] += n

    def self_times(self) -> dict[str, Counter]:
        """Per root span: layer name -> self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        root_of: list[int] = []
        out: dict[str, Counter] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            root = i if parent is None else root_of[parent]
            root_of.append(root)
            if parent is None:
                out.setdefault(name, Counter())
                continue
            out[self.spans[root][0]][name] += end - start - child_time[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans],
                       "counts": {k: dict(v) for k, v in self.counts.items()}},
                      f, indent=0)
