"""In-memory span recorder used by the traced benchmark run.

Spans are taken from the benchmark's own code around each public call into
the package; nothing inside the package is instrumented.  Each span records
its name, start and end (``time.monotonic`` seconds), the span that
enclosed it, the case id and the pass index.  Counters record sizes
observed at the same boundaries.  Everything stays in memory until the run
ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = []
        self.pass_index = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, case):
        record = {"id": len(self.spans), "name": name, "case": case,
                  "pass": self.pass_index,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.monotonic()
        try:
            yield
        finally:
            record["end"] = time.monotonic()
            self._stack.pop()

    def count(self, name, value, case):
        self.counters.append({"name": name, "value": value, "case": case,
                              "pass": self.pass_index})


class NullTracer:
    """Stand-in for untraced passes: spans and counters cost one call."""

    def span(self, name, case):
        return contextlib.nullcontext()

    def count(self, name, value, case):
        pass


def self_times(spans):
    """Each span's duration minus the time covered by its direct children."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}
