"""In-memory span recording around the program's public entry points.

A Tracer replaces a module attribute with a wrapper that records one span
per call: name, start and end (perf_counter_ns), the index of the
enclosing span, and optional attributes set by an annotate callback. The
wrapper is installed where the caller looks the name up (for example
`cacheopt.evolve.map_genotype`, not `cacheopt.grammar.map_genotype`), so
the program itself is unchanged. Spans stay in memory until dump().
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.attrs: dict | None = None

    @property
    def duration_ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, annotate=None):
        """Return fn wrapped to record a span per call.

        annotate(span, args, kwargs, result) may fill span.attrs after a
        normal return; an exception is recorded as attrs["error"].
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter_ns()
                span.attrs = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span.end = perf_counter_ns()
            if annotate is not None:
                annotate(span, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, annotate))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_ns(self) -> list[int]:
        """Per-span duration minus the durations of its direct children."""
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration_ns
        return own

    def dump(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, attrs."""
        with open(path, "w") as fh:
            for s in self.spans:
                record = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                if s.attrs:
                    record["attrs"] = s.attrs
                fh.write(json.dumps(record) + "\n")
