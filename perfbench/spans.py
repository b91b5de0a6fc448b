"""In-memory span recorder for the benchmark.

A span is one timed call into amariflow: its name, start, end, the span
that contains it, and the operation (one replayed CLI command) it belongs
to.  Spans stay in memory while the benchmark measures and are written to
a JSON file when it ends.

Untraced runs record only the spans the workload code opens itself, around
its own calls into the library; the end-to-end metrics need those.  The
traced run also wraps the library calls that integrators make internally
(operator assembly and noise sampling), so that an integrator's self time
is its span minus those children.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("op", "name", "start", "end", "parent", "counts")

    def __init__(self, op, name, start, parent, counts):
        self.op = op
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts = counts

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one benchmark process, in the order they were opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        s = Span(self.op, name, perf_counter(), parent, counts)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        try:
            yield s
        finally:
            s.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self, targets):
        """Replace attributes `(module, attr, span_name)` by traced
        wrappers for the duration of the block."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for (mod, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def self_time(self, index: int) -> float:
        """Duration of span `index` minus the time its children cover."""
        s = self.spans[index]
        child = sum(c.duration for c in self.spans if c.parent == index)
        return s.duration - child

    def of_op(self, op: int, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.op == op and s.name == name]

    def write(self, path, t0: float):
        rows = [
            {
                "op": s.op,
                "name": s.name,
                "start_s": s.start - t0,
                "end_s": s.end - t0,
                "parent": s.parent,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
