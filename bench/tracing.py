"""In-memory spans around the benchmark's calls into the program.

A span records its name (``<module>.<function>``), start, end, the span
that encloses it and the op it belongs to.  Spans stay in memory until the
run ends.  ``NullTracer`` is what the timed run uses: its ``span`` returns a
shared no-op context manager, so an untraced op pays one method call per
boundary and records nothing.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    spans = ()
    op_id = None

    def span(self, name):
        return _NULL


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self._open = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, perf_counter(), None,
               self._open[-1] if self._open else None, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def as_records(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]


def self_times(spans) -> dict:
    """Per layer: calls, total and self seconds.

    Self time is a span's duration minus the time its child spans cover.
    Spans come from one thread and nest, so children never overlap and
    their durations add.
    """
    covered = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    by_name = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - covered[i]
        row = layers[name.split(".", 1)[0]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        by_name[name]["calls"] += 1
        by_name[name]["self_s"] += own
    return {"layers": dict(layers), "calls": dict(by_name)}
