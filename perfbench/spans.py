"""In-memory spans for the traced benchmark run.

A span is (name, suffix, start, end, parent index), timed with
`time.perf_counter`.  The first part of a name, before the dot, is the
indexbound module (layer) whose public function the span wraps.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans and counts in memory; `suffix` tags all of them."""

    def __init__(self, suffix=""):
        self.suffix = suffix
        self.spans = []
        self.counts = []
        self._stack = []

    def begin(self, name):
        """Open a span that the enclosing span closes when it ends."""
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append({"name": name, "suffix": self.suffix,
                           "start": time.perf_counter(), "end": None,
                           "parent": parent})
        return self._stack[-1]

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            end = time.perf_counter()
            while True:  # close spans begun inside this one, then this one
                inner = self._stack.pop()
                self.spans[inner]["end"] = end
                if inner == index:
                    break

    def count(self, name, value):
        """Record a work count made at the same boundary as a span."""
        self.counts.append({"name": name, "suffix": self.suffix,
                            "value": float(value)})

    def dump(self):
        return {"spans": self.spans, "counts": self.counts}


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
