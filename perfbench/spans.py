"""In-memory spans recorded from outside the program, and their self times.

A span has a name, a parent, a start and a duration.  Calls made once per
record are too many to keep one span each, so :meth:`Tracer.aggregate`
folds every call of one function under one parent into a single span
whose duration is the sum of the calls and which carries a call count.
Calls on one thread never overlap, so a span's self time is its duration
minus the durations of its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    duration: float = 0.0
    calls: int = 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._aggregates: dict[tuple[str, int | None], Span] = {}

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.duration = time.perf_counter() - span.start

    def aggregate(self, name: str) -> Span:
        """The folded span for ``name`` under the innermost open span."""
        key = (name, self._stack[-1] if self._stack else None)
        span = self._aggregates.get(key)
        if span is None:
            span = self._aggregates[key] = self._open(name)
            span.calls = 0
        return span

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with each call added to the folded span ``name``."""

        def traced(*args, **kwargs):
            span = self.aggregate(name)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            span.duration += time.perf_counter() - start
            span.calls += 1
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def self_times(self) -> dict[int, float]:
        child_time = dict.fromkeys(range(len(self.spans)), 0.0)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return {s.id: s.duration - child_time[s.id] for s in self.spans}

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        selfs = self.self_times()
        return sum(selfs[s.id] for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        selfs = self.self_times()
        rows = [dict(asdict(s), self_time=selfs[s.id]) for s in self.spans]
        path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


@contextmanager
def patched(targets):
    """Temporarily replace module attributes: ``targets`` is (module, attr, value) triples."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)
